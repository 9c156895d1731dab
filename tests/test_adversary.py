"""Tests for repro.adversary (strategies and planner)."""

import numpy as np
import pytest

from repro.adversary.planner import compare_with_baseline, plan_attack
from repro.adversary.strategies import (
    AdaptiveProbingAdversary,
    FixedSubsetFlood,
    OptimalAdversary,
    UniformFlood,
    ZipfClient,
)
from repro.core.bounds import normalized_max_load_bound
from repro.core.notation import SystemParameters
from repro.exceptions import ConfigurationError


class TestOptimalAdversary:
    def test_case_one_floods_cache_plus_one(self, paper_params):
        adversary = OptimalAdversary(paper_params, k=1.2)
        assert adversary.x == 201
        assert adversary.distribution().x == 201

    def test_case_two_floods_everything(self, paper_params):
        adversary = OptimalAdversary(paper_params.with_cache(2000), k=1.2)
        assert adversary.x == paper_params.m

    def test_only_public_knowledge_consumed(self, paper_params):
        # The constructor signature takes SystemParameters only — no
        # partitioner, no cluster: the information asymmetry is
        # structural.  (A compile-time property, asserted for clarity.)
        adversary = OptimalAdversary(paper_params, k=1.2)
        assert adversary.public is paper_params


class TestSimpleStrategies:
    def test_fixed_subset(self, paper_params):
        flood = FixedSubsetFlood(paper_params, x=500)
        assert flood.distribution().x == 500

    def test_fixed_subset_validates_x(self, paper_params):
        with pytest.raises(ConfigurationError):
            FixedSubsetFlood(paper_params, x=0)
        with pytest.raises(ConfigurationError):
            FixedSubsetFlood(paper_params, x=paper_params.m + 1)

    def test_uniform_flood_covers_key_space(self, paper_params):
        dist = UniformFlood(paper_params).distribution()
        assert dist.m == paper_params.m
        assert np.allclose(dist.probabilities(), 1.0 / paper_params.m)

    def test_zipf_client(self, paper_params):
        dist = ZipfClient(paper_params, s=1.01).distribution()
        assert dist.s == 1.01
        assert dist.m == paper_params.m


class TestAdaptiveProbing:
    def test_finds_case_one_optimum_from_bound_feedback(self, paper_params):
        """Probing against the analytic bound recovers x = c + 1 without
        ever being told k."""
        def feedback(dist):
            return normalized_max_load_bound(paper_params, dist.x, k=1.2)

        adversary = AdaptiveProbingAdversary(paper_params, feedback, probes=10)
        best = adversary.probe()
        assert best == paper_params.c + 1

    def test_finds_case_two_optimum(self, paper_params):
        protected = paper_params.with_cache(2000)
        def feedback(dist):
            return normalized_max_load_bound(protected, dist.x, k=1.2)

        adversary = AdaptiveProbingAdversary(protected, feedback, probes=10)
        assert adversary.probe() == protected.m

    def test_history_recorded(self, paper_params):
        def feedback(dist):
            return float(dist.x)

        adversary = AdaptiveProbingAdversary(paper_params, feedback, probes=5)
        adversary.probe()
        assert len(adversary.history) >= 5
        assert all(gain == float(x) for x, gain in adversary.history)

    def test_distribution_triggers_probe(self, paper_params):
        def feedback(dist):
            return -abs(dist.x - 300)

        adversary = AdaptiveProbingAdversary(paper_params, feedback, probes=8)
        dist = adversary.distribution()
        assert dist.x >= paper_params.c + 1

    def test_rejects_too_few_probes(self, paper_params):
        with pytest.raises(ConfigurationError):
            AdaptiveProbingAdversary(paper_params, lambda d: 0.0, probes=1)

    def test_matches_planner_against_simulator(self):
        """End to end: empirical probing against the real Monte-Carlo
        simulator agrees with the analytic planner's case choice."""
        from repro.sim.analytic import simulate_distribution

        params = SystemParameters(n=50, m=2000, c=20, d=3, rate=1000.0)

        def feedback(dist):
            return simulate_distribution(params, dist, trials=5, seed=2).worst_case

        adversary = AdaptiveProbingAdversary(params, feedback, probes=8)
        best = adversary.probe()
        planned = plan_attack(params, k_prime=0.5).x
        # Both should land on the small-flood side (Case 1).
        assert best <= 3 * planned


class TestPlanner:
    def test_plan_attack_matches_core(self, paper_params):
        from repro.core.cases import plan_best_attack

        assert plan_attack(paper_params, k=1.2) == plan_best_attack(paper_params, k=1.2)

    def test_comparison_prevention_flip(self, paper_params):
        protected = paper_params.with_cache(2000)
        comparison = compare_with_baseline(protected, k=1.2)
        assert comparison.replication_prevents
        assert "ineffective" in comparison.describe()

    def test_comparison_both_effective_when_cache_small(self, paper_params):
        comparison = compare_with_baseline(paper_params, k=1.2)
        assert comparison.replicated.effective
        assert comparison.unreplicated.effective
        assert not comparison.replication_prevents
