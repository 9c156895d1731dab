"""Tests for repro.workload.costs and repro.workload.scan."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, DistributionError
from repro.workload.costs import OperationMix
from repro.workload.scan import CyclicScanDistribution


class TestOperationMix:
    def test_mean_and_max_cost(self):
        mix = OperationMix({"read": (0.9, 1.0), "write": (0.1, 5.0)})
        assert mix.mean_cost == pytest.approx(1.4)
        assert mix.max_cost == 5.0

    def test_worst_case_inflation(self):
        mix = OperationMix({"read": (0.9, 1.0), "write": (0.1, 5.0)})
        # An all-write attacker is 5/1.4 times heavier than the mix.
        assert mix.worst_case_inflation() == pytest.approx(5.0 / 1.4)

    def test_uniform_cost_mix_has_no_inflation(self):
        mix = OperationMix({"any": (1.0, 2.0)})
        assert mix.worst_case_inflation() == pytest.approx(1.0)

    def test_sample_costs(self):
        mix = OperationMix({"read": (0.5, 1.0), "write": (0.5, 3.0)})
        costs = mix.sample_costs(10_000, rng=1)
        assert set(np.unique(costs)) == {1.0, 3.0}
        assert costs.mean() == pytest.approx(2.0, abs=0.1)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            OperationMix({})
        with pytest.raises(ConfigurationError):
            OperationMix({"a": (0.5, 1.0)})  # fractions don't sum to 1
        with pytest.raises(ConfigurationError):
            OperationMix({"a": (1.0, 0.0)})  # zero cost
        with pytest.raises(ConfigurationError):
            OperationMix({"a": (-0.5, 1.0), "b": (1.5, 1.0)})


class TestCyclicScan:
    def test_same_marginals_as_adversarial(self):
        scan = CyclicScanDistribution(m=100, x=10)
        probs = scan.probabilities()
        assert np.allclose(probs[:10], 0.1)
        assert probs[10:].sum() == 0.0

    def test_deterministic_cyclic_order(self):
        scan = CyclicScanDistribution(m=100, x=4)
        assert scan.sample(6).tolist() == [0, 1, 2, 3, 0, 1]
        # State advances across calls.
        assert scan.sample(3).tolist() == [2, 3, 0]

    def test_offset_and_reset(self):
        scan = CyclicScanDistribution(m=100, x=4, offset=2)
        assert scan.sample(3).tolist() == [2, 3, 0]
        scan.reset()
        assert scan.position == 0
        assert scan.sample(2).tolist() == [0, 1]

    def test_each_cycle_covers_all_keys_equally(self):
        scan = CyclicScanDistribution(m=50, x=7)
        keys = scan.sample(7 * 13)
        counts = np.bincount(keys, minlength=50)
        assert (counts[:7] == 13).all()
        assert counts[7:].sum() == 0

    def test_defeats_lru_but_not_perfect(self):
        from repro.cache.lru import LRUCache
        from repro.cache.perfect import PerfectCache

        scan = CyclicScanDistribution(m=1000, x=40)
        keys = scan.sample(4000).tolist()
        lru = LRUCache(20)
        perfect = PerfectCache.from_distribution(scan.probabilities(), 20)
        for key in keys:
            lru.access(key)
            perfect.access(key)
        assert lru.stats.hit_rate == 0.0
        assert perfect.stats.hit_rate == pytest.approx(0.5, abs=0.02)

    def test_validation(self):
        with pytest.raises(DistributionError):
            CyclicScanDistribution(m=10, x=11)
        with pytest.raises(DistributionError):
            CyclicScanDistribution(m=10, x=5, offset=-1)
        scan = CyclicScanDistribution(m=10, x=5)
        with pytest.raises(DistributionError):
            scan.sample(-1)
