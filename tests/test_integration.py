"""Integration tests: whole-pipeline and cross-engine validation.

These are the tests that tie the reproduction together: the adversary
plans from public knowledge, the simulators execute against private
randomness, and the paper's claims come out — at reduced scale so the
suite stays fast.
"""

import numpy as np
import pytest
from critical_point import find_critical_cache_size

from repro.adversary.strategies import OptimalAdversary
from repro.cluster.partitioner import RandomTablePartitioner
from repro.cluster.selection import LeastLoadedKeyPinning
from repro.core.bounds import normalized_max_load_bound
from repro.core.cases import critical_cache_size, plan_best_attack
from repro.core.notation import SystemParameters
from repro.core.provisioning import recommend
from repro.experiments.fig5 import run_fig5
from repro.experiments.params import PaperParams
from repro.sim.analytic import simulate_distribution
from repro.sim.eventsim import EventDrivenSimulator
from repro.workload.adversarial import AdversarialDistribution


def _best_gain(n: int, m: int, c: int, d: int, seed: int) -> float:
    """Fig. 5's best achievable gain at one cache size."""
    paper = PaperParams(n=n, m=m, d=d, rate=1000.0)
    result = run_fig5(paper=paper, cache_values=[c], trials=10, seed=seed)
    return result.columns["best_gain"][0]


class TestEndToEndPipeline:
    """Adversary -> cache -> cluster -> metrics, all public/private
    boundaries respected."""

    def test_planned_attack_executes_as_predicted(self):
        params = SystemParameters(n=100, m=5000, c=30, d=3, rate=10_000.0)
        adversary = OptimalAdversary(params, k_prime=0.5)
        dist = adversary.distribution()
        report = simulate_distribution(params, dist, trials=20, seed=1)
        # Case 1: a single uncached key at rate R/x on one node.
        assert adversary.x == 31
        assert report.worst_case == pytest.approx(100 / 31, rel=0.01)
        # The analytic bound covers the simulation.
        bound = normalized_max_load_bound(params, adversary.x, k_prime=0.5)
        assert report.worst_case <= bound

    def test_provisioned_system_defeats_the_same_adversary(self):
        vulnerable = SystemParameters(n=100, m=5000, c=30, d=3, rate=10_000.0)
        report = recommend(vulnerable, k_prime=0.75)
        protected = vulnerable.with_cache(report.required_cache)
        adversary = OptimalAdversary(protected, k_prime=0.75)
        outcome = simulate_distribution(
            protected, adversary.distribution(), trials=20, seed=2
        )
        assert not plan_best_attack(protected, k_prime=0.75).effective
        assert outcome.worst_case <= 1.05  # ineffective up to MC wiggle

    def test_partitioner_path_matches_analytic_path(self):
        """Routing rates through a real partitioner (random table +
        least-loaded selection) produces gains statistically matching
        the abstract placement simulator."""
        params = SystemParameters(n=50, m=2000, c=10, d=3, rate=1000.0)
        x = 500
        analytic = simulate_distribution(
            params, AdversarialDistribution(params.m, x), trials=30, seed=3
        ).mean

        gains = []
        for seed in range(30):
            partitioner = RandomTablePartitioner(50, 3, 2000, seed=seed)
            groups = partitioner.replica_groups(np.arange(params.c, x))
            rates = np.full(groups.shape[0], params.rate / x)
            loads = LeastLoadedKeyPinning().node_loads(groups, rates, params.n)
            gains.append(loads.max() / params.even_split)
        assert np.mean(gains) == pytest.approx(analytic, rel=0.1)


class TestCrossEngineAgreement:
    def test_eventsim_matches_analytic_normalized_max(self):
        """The request-level engine and the placement engine agree on
        the paper's headline metric within sampling error."""
        params = SystemParameters(n=20, m=500, c=10, d=3, rate=5000.0)
        x = 100
        analytic = simulate_distribution(
            params, AdversarialDistribution(params.m, x), trials=30, seed=4
        ).mean

        event_gains = []
        for trial in range(5):
            sim = EventDrivenSimulator(
                params, AdversarialDistribution(params.m, x), seed=5
            )
            event_gains.append(sim.run(40_000, trial=trial).normalized_max)
        assert np.mean(event_gains) == pytest.approx(analytic, rel=0.25)

    def test_capacity_theorem_observable_in_eventsim(self):
        """Section III-B's closing claim: capacity above the E[L_max]
        bound => no node saturates.  The event engine shows it."""
        params = SystemParameters(n=20, m=500, c=10, d=3, rate=5000.0)
        plan = plan_best_attack(params, k_prime=0.75)
        bound_rate = plan.gain_bound * params.even_split

        sim = EventDrivenSimulator(
            params,
            AdversarialDistribution(params.m, plan.x),
            node_capacity=bound_rate * 1.1,
            seed=6,
        )
        result = sim.run(30_000)
        assert result.drop_rate == 0.0


class TestCriticalPointReproduction:
    def test_empirical_crossing_is_theta_n(self):
        """The empirical critical cache size sits within a constant
        factor of n (and is independent of m), the paper's core claim.
        Uses a small system so the bisection stays fast."""
        n, d = 50, 3

        def gain_at(c, m):
            return _best_gain(n, m, c, d, seed=7)

        result = find_critical_cache_size(
            lambda c: gain_at(c, m=4000), lo=5, hi=1000, tolerance=8
        )
        # Theta(n): between n/2 and 4n for this configuration.
        assert n / 2 <= result.critical_cache <= 4 * n

        # Independence of m: doubling the key space moves the crossing
        # by at most the bisection tolerance + MC noise band.
        result2 = find_critical_cache_size(
            lambda c: gain_at(c, m=8000), lo=5, hi=1000, tolerance=8
        )
        assert abs(result2.critical_cache - result.critical_cache) <= 0.5 * n

    def test_analytic_critical_point_brackets_empirical(self):
        n, d = 50, 3
        analytic_paper_k = critical_cache_size(n, d, k=1.2)
        analytic_calibrated = critical_cache_size(n, d, k_prime=0.75)

        def gain_at(c):
            return _best_gain(n, 4000, c, d, seed=8)

        empirical = find_critical_cache_size(gain_at, lo=5, hi=1000, tolerance=8)
        lo_ref = min(analytic_paper_k, analytic_calibrated)
        hi_ref = max(analytic_paper_k, analytic_calibrated)
        assert lo_ref * 0.4 <= empirical.critical_cache <= hi_ref * 1.6
