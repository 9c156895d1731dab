"""Tests for repro.workload.adversarial."""

import numpy as np
import pytest

from repro.workload.adversarial import AdversarialDistribution


class TestAdversarialDistribution:
    def test_uniform_prefix(self):
        dist = AdversarialDistribution(m=50, x=10)
        probs = dist.probabilities()
        assert np.allclose(probs[:10], 0.1)
        assert probs[10:].sum() == 0.0

    def test_sample_stays_in_prefix(self):
        dist = AdversarialDistribution(m=50, x=10)
        keys = dist.sample(1000, rng=1)
        assert keys.max() < 10

    def test_uncached_keys(self):
        dist = AdversarialDistribution(m=50, x=10)
        assert dist.uncached_keys(c=4).tolist() == [4, 5, 6, 7, 8, 9]
        assert dist.uncached_keys(c=10).size == 0
        assert dist.uncached_keys(c=20).size == 0

    def test_optimal_for_case_one(self, paper_params):
        dist = AdversarialDistribution.optimal_for(paper_params, k=1.2)
        assert dist.x == 201

    def test_optimal_for_case_two(self, paper_params):
        protected = paper_params.with_cache(2000)
        dist = AdversarialDistribution.optimal_for(protected, k=1.2)
        assert dist.x == protected.m

    def test_rejects_bad_x(self):
        from repro.exceptions import DistributionError

        with pytest.raises(DistributionError):
            AdversarialDistribution(m=10, x=11)
        with pytest.raises(DistributionError):
            AdversarialDistribution(m=10, x=0)
