"""Tests for the cache-warmup and goodness-of-fit test helpers."""

import numpy as np
import pytest
from goodness_of_fit import chi_square_uniform, partitioner_uniformity, sampler_fidelity
from warmup import attack_window, queries_to_warm, warmup_curve

from repro.cache.lfu import LFUCache
from repro.cache.lru import LRUCache
from repro.cache.perfect import PerfectCache
from repro.cluster.partitioner import (
    ConsistentHashPartitioner,
    HashPartitioner,
    RandomTablePartitioner,
)
from repro.exceptions import AnalysisError
from repro.workload.scan import CyclicScanDistribution
from repro.workload.zipf import ZipfDistribution


class TestWarmupCurve:
    def test_perfect_cache_is_born_warm(self):
        zipf = ZipfDistribution(1000, 1.01)
        cache = PerfectCache.from_distribution(zipf.probabilities(), 100)
        keys = zipf.sample(10_000, rng=1)
        curve = warmup_curve(cache, keys, window=1000)
        # First window already at steady state.
        assert curve[0] == pytest.approx(curve[-1], abs=0.05)

    def test_lru_warms_up(self):
        zipf = ZipfDistribution(1000, 1.2)
        cache = LRUCache(100)
        keys = zipf.sample(20_000, rng=2)
        curve = warmup_curve(cache, keys, window=500)
        # Cold start is strictly worse than steady state.
        assert curve[0] < curve[-4:].mean()

    def test_window_validation(self):
        with pytest.raises(AnalysisError):
            warmup_curve(LRUCache(4), [1, 2, 3], window=0)
        with pytest.raises(AnalysisError):
            warmup_curve(LRUCache(4), [1, 2, 3], window=10)


class TestQueriesToWarm:
    def test_lfu_warms_within_stream(self):
        zipf = ZipfDistribution(1000, 1.2)
        keys = zipf.sample(30_000, rng=3)
        report = queries_to_warm(LFUCache(100), keys, window=500)
        assert report.warmed
        assert report.queries_to_warm <= 30_000
        assert report.steady_hit_rate > 0.3

    def test_lru_never_warms_under_cyclic_scan(self):
        """The operationally scary case: under a scan the recency cache
        has no steady state to warm *to* (hit rate pinned at 0)."""
        scan = CyclicScanDistribution(m=1000, x=400)
        keys = scan.sample(20_000)
        report = queries_to_warm(LRUCache(100), keys, window=500)
        assert report.steady_hit_rate == 0.0
        assert not report.warmed

    def test_attack_window_seconds(self):
        zipf = ZipfDistribution(1000, 1.2)
        keys = zipf.sample(30_000, rng=4)
        seconds = attack_window(LFUCache(100), keys, rate=10_000.0, window=500)
        assert seconds is not None
        assert 0 < seconds <= 3.0

    def test_faster_rate_shrinks_window(self):
        zipf = ZipfDistribution(1000, 1.2)
        report = queries_to_warm(LFUCache(100), zipf.sample(30_000, rng=5), window=500)
        slow = report.seconds_at(1000.0)
        fast = report.seconds_at(100_000.0)
        assert fast < slow

    def test_validation(self):
        with pytest.raises(AnalysisError):
            queries_to_warm(LRUCache(4), list(range(5000)), target_fraction=0.0)
        report = queries_to_warm(
            LFUCache(10), ZipfDistribution(100, 1.2).sample(8000, rng=1), window=500
        )
        with pytest.raises(AnalysisError):
            report.seconds_at(0.0)


class TestChiSquareUniform:
    def test_uniform_counts_pass(self):
        counts = np.random.default_rng(1).multinomial(10_000, [0.1] * 10)
        assert chi_square_uniform(counts).passes()

    def test_skewed_counts_fail(self):
        counts = np.array([5000, 100, 100, 100, 100])
        assert not chi_square_uniform(counts).passes()

    def test_validation(self):
        with pytest.raises(AnalysisError):
            chi_square_uniform([10])
        with pytest.raises(AnalysisError):
            chi_square_uniform([0, 0])
        with pytest.raises(AnalysisError):
            chi_square_uniform([2, 2, 2])  # expected < 5


class TestPartitionerUniformity:
    KEYS = np.arange(20_000)

    @pytest.mark.parametrize(
        "partitioner",
        [
            HashPartitioner(20, 3, secret=b"validate"),
            RandomTablePartitioner(20, 3, m=20_000, seed=5),
        ],
        ids=["hash", "table"],
    )
    def test_randomized_partitioners_are_uniform(self, partitioner):
        """Assumption 1 of the paper holds exactly for the keyed-hash
        and random-table partitioners."""
        for replica in range(3):
            fit = partitioner_uniformity(partitioner, self.KEYS, replica=replica)
            assert fit.passes(), fit.describe()

    def test_ring_is_only_approximately_uniform(self):
        """A consistent-hash ring has *fixed* per-node share deviations
        of ~1/sqrt(vnodes): bounded (every node within ~25% of its fair
        share at 256 vnodes) yet statistically detectable with enough
        samples — which is exactly why the theory's random-table model
        and the deployed ring differ, and what the partitioner ablation
        bench quantifies."""
        ring = ConsistentHashPartitioner(20, 3, vnodes=256, secret=b"validate")
        groups = ring.replica_groups(self.KEYS)
        counts = np.bincount(groups[:, 0], minlength=20)
        fair = self.KEYS.size / 20
        assert counts.max() < 1.3 * fair
        assert counts.min() > 0.7 * fair
        # Detectable bias at scale: the chi-square correctly rejects.
        fit = partitioner_uniformity(ring, self.KEYS)
        assert not fit.passes()

    def test_low_vnode_ring_detectably_nonuniform(self):
        """With very few vnodes the ring's arc lengths are visibly
        unequal — the validation machinery catches real bias."""
        ring = ConsistentHashPartitioner(20, 1, vnodes=1, secret=b"biased")
        fit = partitioner_uniformity(ring, self.KEYS)
        assert not fit.passes()

    def test_replica_index_validated(self):
        part = RandomTablePartitioner(5, 2, m=100, seed=1)
        with pytest.raises(AnalysisError):
            partitioner_uniformity(part, np.arange(100), replica=2)


class TestSamplerFidelity:
    @pytest.mark.parametrize(
        "distribution",
        [
            ZipfDistribution(500, 1.01),
            CyclicScanDistribution(500, 120),  # deterministic but exact marginals
        ],
        ids=["zipf", "scan"],
    )
    def test_samplers_match_declared_probabilities(self, distribution):
        fit = sampler_fidelity(distribution, samples=48_000, seed=3)
        assert fit.passes(), fit.describe()

    def test_detects_a_broken_sampler(self):
        class Lying(ZipfDistribution):
            def sample(self, size, rng=None):  # claims Zipf, samples uniform
                from repro.rng import as_generator

                gen = as_generator(rng, "lying")
                return gen.integers(0, self.m, size=size, dtype=np.int64)

        fit = sampler_fidelity(Lying(500, 1.01), samples=48_000, seed=3)
        assert not fit.passes()

    def test_validation(self):
        with pytest.raises(AnalysisError):
            sampler_fidelity(ZipfDistribution(10, 1.0), samples=0)
