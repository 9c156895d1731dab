"""Tests for the Monte-Carlo placement simulator and the trial runner."""

import numpy as np
import pytest

from repro.core.notation import SystemParameters
from repro.exceptions import DistributionError, SimulationError
from repro.experiments.fig5 import run_fig5
from repro.experiments.params import PaperParams
from repro.sim.analytic import simulate_distribution
from repro.sim.runner import run_trials
from repro.types import LoadVector
from repro.workload.adversarial import AdversarialDistribution
from repro.workload.distributions import UniformDistribution
from repro.workload.zipf import ZipfDistribution


def _attack(params, x, trials, seed=None):
    """The paper's x-key uniform attack on ``params``."""
    return simulate_distribution(
        params, AdversarialDistribution(params.m, x), trials=trials, seed=seed
    )


class TestRunTrials:
    def test_aggregates_per_trial_gains(self):
        def task(gen, trial, context):
            return LoadVector(loads=np.array([1.0, float(gen.integers(1, 5))]), total_rate=4.0)

        report, vectors = run_trials(task, 50, seed=1, label="t")
        assert len(vectors) == 50
        assert report.trials == 50
        assert report.worst_case >= report.mean

    def test_reproducible(self):
        def task(gen, trial, context):
            return LoadVector(loads=gen.random(4) + 0.1, total_rate=2.0)

        a, _ = run_trials(task, 10, seed=9, label="t")
        b, _ = run_trials(task, 10, seed=9, label="t")
        assert (a.normalized_max_per_trial == b.normalized_max_per_trial).all()

    def test_label_separates_campaigns(self):
        def task(gen, trial, context):
            return LoadVector(loads=gen.random(4) + 0.1, total_rate=2.0)

        a, _ = run_trials(task, 10, seed=9, label="one")
        b, _ = run_trials(task, 10, seed=9, label="two")
        assert not (a.normalized_max_per_trial == b.normalized_max_per_trial).all()

    def test_rejects_configuration_drift(self):
        calls = []

        def task(gen, trial, context):
            calls.append(1)
            rate = 2.0 if len(calls) == 1 else 3.0
            return LoadVector(loads=np.array([1.0]), total_rate=rate)

        with pytest.raises(SimulationError):
            run_trials(task, 2, seed=1)

    def test_rejects_zero_trials(self):
        with pytest.raises(SimulationError):
            run_trials(lambda gen, trial, context: None, 0)


class TestUniformAttack:
    """The paper's x-key attack through ``distribution_attack``."""

    def _params(self):
        return SystemParameters(n=50, m=2000, c=20, d=3, rate=1000.0)

    def test_single_uncached_key_lands_on_one_node(self):
        params = self._params()
        report = _attack(params, 21, trials=10, seed=1)
        # One ball at rate R/21 on one node: gain = n/21 exactly.
        assert report.worst_case == pytest.approx(50.0 / 21.0)
        assert report.std == pytest.approx(0.0, abs=1e-12)

    def test_fully_cached_attack_is_zero(self):
        params = self._params()
        report = _attack(params, 20, trials=3, seed=1)
        assert report.worst_case == 0.0

    def test_case_structure_small_vs_large_cache(self):
        small = SystemParameters(n=50, m=2000, c=20, d=3, rate=1000.0)
        large = SystemParameters(n=50, m=2000, c=200, d=3, rate=1000.0)
        # Small cache: flooding x=c+1 is effective.
        gain_small = _attack(small, 21, trials=10, seed=2).worst_case
        assert gain_small > 1.0
        # Large cache (> n k + 1 for any sane k): flooding x=c+1 is not.
        gain_large = _attack(large, 201, trials=10, seed=2).worst_case
        assert gain_large < 1.0

    def test_decreasing_in_x_for_small_cache(self):
        params = self._params()
        gains = [
            _attack(params, x, trials=15, seed=3).worst_case
            for x in (21, 100, 1000, 2000)
        ]
        assert gains[0] > gains[-1]

    def test_replication_helps(self):
        """d = 3 yields a lower worst case than d = 1 at the same x —
        the mechanism behind the whole paper."""
        base = dict(n=50, m=5000, c=0, rate=1000.0)
        x = 5000
        g1 = _attack(SystemParameters(d=1, **base), x, trials=10, seed=4).worst_case
        g3 = _attack(SystemParameters(d=3, **base), x, trials=10, seed=4).worst_case
        assert g3 < g1

    def test_rejects_bad_x(self):
        params = self._params()
        with pytest.raises(DistributionError):
            _attack(params, 0, trials=1)
        with pytest.raises(DistributionError):
            _attack(params, params.m + 1, trials=1)

    def test_metadata_recorded(self):
        params = self._params()
        report = _attack(params, 30, trials=2, seed=1)
        assert report.metadata["x"] == 30
        assert report.metadata["n"] == 50


class TestDistributionAttack:
    def _params(self):
        return SystemParameters(n=50, m=2000, c=50, d=3, rate=1000.0)

    def test_uniform_distribution_gain_near_one(self):
        params = self._params()
        report = simulate_distribution(
            params, UniformDistribution(params.m), trials=10, seed=6
        )
        assert 0.8 < report.worst_case < 1.4

    def test_zipf_absorbed_by_cache(self):
        params = self._params()
        zipf = simulate_distribution(
            params, ZipfDistribution(params.m, 1.01), trials=10, seed=6
        )
        uniform = simulate_distribution(
            params, UniformDistribution(params.m), trials=10, seed=6
        )
        assert zipf.worst_case < uniform.worst_case

    def test_mismatched_key_space_rejected(self):
        params = self._params()
        with pytest.raises(SimulationError):
            simulate_distribution(params, UniformDistribution(99), trials=1)


class TestBestAchievable:
    """Fig. 5's endpoint search: the better of x = c + 1 and x = m."""

    @staticmethod
    def _best(n, c):
        paper = PaperParams(n=n, m=2000, d=3, rate=1000.0)
        columns = run_fig5(paper=paper, cache_values=[c], trials=10, seed=8).columns
        return columns["best_gain"][0], columns["x_queried"][0]

    def test_small_cache_prefers_small_flood(self):
        gain, x = self._best(n=50, c=20)
        assert x == 21
        assert gain > 1.0

    def test_large_cache_prefers_full_sweep(self):
        gain, x = self._best(n=20, c=300)
        assert x == 2000
        assert gain <= 1.0

    def test_gain_decreases_with_cache(self):
        gains = [self._best(n=50, c=c)[0] for c in (10, 50, 150)]
        assert gains[0] > gains[1] > gains[2]
