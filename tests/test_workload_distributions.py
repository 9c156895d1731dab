"""Tests for repro.workload.distributions and zipf."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import DistributionError
from repro.workload.adversarial import AdversarialDistribution
from repro.workload.distributions import (
    CustomDistribution,
    GeometricDistribution,
    PointMassDistribution,
    UniformDistribution,
)
from repro.workload.scan import CyclicScanDistribution
from repro.workload.zipf import ZipfDistribution

ALL_DISTRIBUTIONS = [
    UniformDistribution(100),
    PointMassDistribution(100, key=7),
    CustomDistribution(np.arange(1, 101)[::-1].astype(float)),
    GeometricDistribution(100, ratio=0.9),
    ZipfDistribution(100, s=1.01),
]


@pytest.mark.parametrize("dist", ALL_DISTRIBUTIONS, ids=lambda d: d.name)
class TestDistributionContract:
    def test_probabilities_sum_to_one(self, dist):
        probs = dist.probabilities()
        assert probs.shape == (100,)
        assert probs.sum() == pytest.approx(1.0)
        assert (probs >= 0).all()

    def test_sample_in_range(self, dist):
        keys = dist.sample(500, rng=1)
        assert keys.shape == (500,)
        assert keys.min() >= 0 and keys.max() < 100

    def test_sample_reproducible(self, dist):
        assert (dist.sample(100, rng=3) == dist.sample(100, rng=3)).all()

    def test_sample_zero(self, dist):
        assert dist.sample(0, rng=1).size == 0

    def test_sample_counts_is_multinomial(self, dist):
        counts = dist.sample_counts(1000, rng=2)
        assert counts.sum() == 1000
        assert (counts >= 0).all()

    def test_expected_rates_scale(self, dist):
        rates = dist.expected_rates(500.0)
        assert rates.sum() == pytest.approx(500.0)

    def test_top_keys_sorted_by_probability(self, dist):
        probs = dist.probabilities()
        top = dist.top_keys(10)
        assert len(top) == 10
        threshold = probs[top].min()
        others = np.delete(probs, top)
        assert (others <= threshold + 1e-12).all()

    def test_sample_matches_probabilities(self, dist):
        """Empirical frequencies track the declared law (chi-ish check)."""
        keys = dist.sample(50_000, rng=11)
        emp = np.bincount(keys, minlength=100) / 50_000
        assert np.abs(emp - dist.probabilities()).max() < 0.02

    def test_negative_size_rejected(self, dist):
        with pytest.raises(DistributionError):
            dist.sample(-1)


class TestUniform:
    def test_flat(self):
        probs = UniformDistribution(4).probabilities()
        assert np.allclose(probs, 0.25)


class TestPointMass:
    def test_all_mass_on_key(self):
        dist = PointMassDistribution(10, key=3)
        probs = dist.probabilities()
        assert probs[3] == 1.0
        assert (dist.sample(50, rng=1) == 3).all()

    def test_rejects_out_of_range_key(self):
        with pytest.raises(DistributionError):
            PointMassDistribution(10, key=10)


class TestCustom:
    def test_normalises(self):
        dist = CustomDistribution(np.array([2.0, 2.0]))
        assert np.allclose(dist.probabilities(), [0.5, 0.5])

    def test_rejects_negative(self):
        with pytest.raises(DistributionError):
            CustomDistribution(np.array([1.0, -0.5]))

    def test_rejects_zero_mass(self):
        with pytest.raises(DistributionError):
            CustomDistribution(np.array([0.0, 0.0]))


class TestGeometric:
    def test_monotone_decreasing(self):
        probs = GeometricDistribution(50, ratio=0.8).probabilities()
        assert (np.diff(probs) < 0).all()

    def test_ratio_one_is_uniform(self):
        probs = GeometricDistribution(10, ratio=1.0).probabilities()
        assert np.allclose(probs, 0.1)

    def test_rejects_bad_ratio(self):
        with pytest.raises(DistributionError):
            GeometricDistribution(10, ratio=0.0)
        with pytest.raises(DistributionError):
            GeometricDistribution(10, ratio=1.5)


class TestZipf:
    def test_monotone_decreasing(self):
        probs = ZipfDistribution(100, s=1.01).probabilities()
        assert (np.diff(probs) < 0).all()

    def test_head_concentration_like_paper(self):
        """The paper: 'near 80% workloads are concentrated on 20% items'
        for Zipf(1.01).  On large key spaces the 20% head indeed carries
        the strong majority of the mass."""
        dist = ZipfDistribution(100_000, s=1.01)
        assert dist.head_mass(20_000) > 0.75

    def test_head_mass_monotone(self):
        dist = ZipfDistribution(1000, s=1.01)
        assert dist.head_mass(10) < dist.head_mass(100) < dist.head_mass(1000)
        assert dist.head_mass(1000) == pytest.approx(1.0)

    def test_s_zero_is_uniform(self):
        probs = ZipfDistribution(10, s=0.0).probabilities()
        assert np.allclose(probs, 0.1)

    def test_rejects_negative_s(self):
        with pytest.raises(DistributionError):
            ZipfDistribution(10, s=-1.0)

    @given(
        m=st.integers(min_value=1, max_value=500),
        s=st.floats(min_value=0.0, max_value=3.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_valid_distribution_property(self, m, s):
        probs = ZipfDistribution(m, s=s).probabilities()
        assert probs.sum() == pytest.approx(1.0)
        assert (np.diff(probs) <= 1e-15).all()


class TestAdversarialTopKeys:
    """The closed-form ``top_keys`` of the prefix flood equals the sort."""

    @pytest.mark.parametrize("cls", [AdversarialDistribution, CyclicScanDistribution])
    @pytest.mark.parametrize("m, x", [(1, 1), (10, 3), (10, 10), (1000, 201)])
    def test_matches_stable_argsort(self, cls, m, x):
        dist = cls(m, x)
        order = np.argsort(-dist.probabilities(), kind="stable")
        for c in sorted({0, 1, x - 1, x, x + 1, m, m + 7}):
            top = dist.top_keys(c)
            assert top.dtype == np.int64
            assert top.tobytes() == order[:c].astype(np.int64).tobytes()

    @pytest.mark.parametrize("cls", [AdversarialDistribution, CyclicScanDistribution])
    def test_negative_c_rejected(self, cls):
        with pytest.raises(DistributionError):
            cls(10, 3).top_keys(-1)
