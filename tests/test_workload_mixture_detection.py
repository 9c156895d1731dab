"""Tests for workload mixtures and the traffic-profile detector."""

import numpy as np
import pytest

from detection_oracle import profile_counts, profile_keys
from repro.exceptions import AnalysisError, DistributionError
from repro.workload.adversarial import AdversarialDistribution
from repro.workload.distributions import PointMassDistribution, UniformDistribution
from repro.workload.mixture import MixtureDistribution
from repro.workload.scan import CyclicScanDistribution
from repro.workload.zipf import ZipfDistribution

M = 5000


class TestMixtureDistribution:
    def test_probabilities_are_weighted_sum(self):
        mix = MixtureDistribution(
            [(0.75, UniformDistribution(4)), (0.25, PointMassDistribution(4, key=0))]
        )
        probs = mix.probabilities()
        assert probs[0] == pytest.approx(0.75 * 0.25 + 0.25)
        assert probs[1] == pytest.approx(0.75 * 0.25)
        assert probs.sum() == pytest.approx(1.0)

    def test_weights_normalised(self):
        mix = MixtureDistribution(
            [(3.0, UniformDistribution(4)), (1.0, UniformDistribution(4))]
        )
        assert np.allclose(mix.weights, [0.75, 0.25])

    def test_sampling_tracks_weights(self):
        mix = MixtureDistribution(
            [(0.8, PointMassDistribution(10, key=0)),
             (0.2, PointMassDistribution(10, key=9))]
        )
        keys = mix.sample(20_000, rng=1)
        share_zero = float((keys == 0).mean())
        assert share_zero == pytest.approx(0.8, abs=0.02)

    def test_component_ordering_preserved_in_stream(self):
        """A cyclic-scan component stays cyclic within its share."""
        scan = CyclicScanDistribution(M, 50)
        # Mix with uniform over all M keys: hits below 50 from the
        # uniform component are ~1% noise, so the sub-stream below 50 is
        # essentially the scan's.
        mix = MixtureDistribution([(0.5, UniformDistribution(M)), (0.5, scan)])
        keys = mix.sample(2000, rng=2)
        scan_keys = keys[keys < 50]
        # The scan's deterministic order means consecutive scan samples
        # increase (mod 50) — check a strong majority do.
        diffs = np.diff(scan_keys) % 50
        assert (diffs == 1).mean() > 0.5

    def test_attack_fraction(self):
        mix = MixtureDistribution(
            [(0.9, ZipfDistribution(M, 1.01)), (0.1, AdversarialDistribution(M, 500))]
        )
        assert mix.attack_fraction(1) == pytest.approx(0.1)
        with pytest.raises(DistributionError):
            mix.attack_fraction(2)

    def test_validation(self):
        with pytest.raises(DistributionError):
            MixtureDistribution([])
        with pytest.raises(DistributionError):
            MixtureDistribution([(0.0, UniformDistribution(4))])
        with pytest.raises(DistributionError):
            MixtureDistribution(
                [(0.5, UniformDistribution(4)), (0.5, UniformDistribution(5))]
            )

    def test_contract_basics(self):
        mix = MixtureDistribution(
            [(0.6, ZipfDistribution(M, 1.01)), (0.4, AdversarialDistribution(M, 100))]
        )
        assert mix.probabilities().sum() == pytest.approx(1.0)
        keys = mix.sample(1000, rng=3)
        assert keys.min() >= 0 and keys.max() < M


class TestTrafficProfiles:
    def test_adversarial_flood_flagged(self):
        keys = AdversarialDistribution(M, 800).sample(50_000, rng=1)
        profile = profile_keys(keys, m=M)
        assert profile.verdict == "uniform-flood"
        assert profile.flood_like
        assert profile.normalized_entropy > 0.95

    def test_zipf_reads_as_benign_skew(self):
        keys = ZipfDistribution(M, 1.01).sample(50_000, rng=2)
        profile = profile_keys(keys, m=M)
        assert profile.verdict == "skewed-benign"
        assert not profile.flood_like

    def test_flash_crowd_reads_as_concentration(self):
        # 90% of traffic on one item, the rest Zipf.
        mix = MixtureDistribution(
            [(0.9, PointMassDistribution(M, key=7)), (0.1, ZipfDistribution(M, 1.01))]
        )
        profile = profile_keys(mix.sample(50_000, rng=3), m=M)
        assert profile.verdict == "concentrated"
        assert profile.top_key_share > 0.8

    def test_uniform_benign_is_indistinguishable_from_case2_attack(self):
        """The paper's punchline restated by the detector: with a
        provisioned cache the best attack (query everything) has the
        same fingerprint as benign uniform traffic."""
        attack = AdversarialDistribution(M, M).sample(50_000, rng=4)
        benign = UniformDistribution(M).sample(50_000, rng=5)
        assert profile_keys(attack, m=M).verdict == profile_keys(benign, m=M).verdict

    def test_describe(self):
        profile = profile_counts([100, 100, 100])
        assert "3 keys" in profile.describe()

    def test_single_key_stream(self):
        profile = profile_counts([500])
        assert profile.verdict == "concentrated"
        assert profile.normalized_entropy == 0.0
        assert not profile.flood_like

    def test_validation(self):
        with pytest.raises(AnalysisError):
            profile_counts([])
        with pytest.raises(AnalysisError):
            profile_counts([0, 0])
        with pytest.raises(AnalysisError):
            profile_counts([-1, 5])
        with pytest.raises(AnalysisError):
            profile_keys([])

    def test_head_share(self):
        counts = np.ones(200)
        counts[0] = 801  # 1% head = 2 keys
        profile = profile_counts(counts)
        assert profile.head_share_1pct == pytest.approx(802 / 1000.0)
