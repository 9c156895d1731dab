"""Tests for repro.sim.parallel and the workers= plumbing.

The headline contract: for any worker count, a campaign with a given
seed produces *bit-identical* per-trial results — parallelism is an
execution detail, never a semantics change.
"""

import os

import numpy as np
import pytest

from repro.chaos import ChaosConfig
from repro.core.notation import SystemParameters
from repro.exceptions import SimulationError
from repro.obs import (
    LoadMonitor, MetricsRegistry, MonitorConfig, RunContext, Tracer,
)
from repro.sim.analytic import MonteCarloSimulator, simulate_distribution
from repro.sim.batch import run_event_campaign
from repro.sim.parallel import map_trials, resolve_seed, resolve_workers
from repro.sim.runner import run_trials
from repro.types import LoadVector
from repro.workload.adversarial import AdversarialDistribution
from repro.workload.distributions import UniformDistribution


def _params():
    return SystemParameters(n=20, m=2000, c=50, d=3, rate=1e4)


def _uniform_vector(gen, trial, context):
    """Top-level (hence picklable) trial: random loads, fixed config."""
    return LoadVector(loads=gen.random(8) + 0.1, total_rate=100.0)


def _trial_index_vector(gen, trial, context):
    """Encodes its trial index in the load so ordering is observable."""
    loads = np.ones(4)
    loads[0] = 10.0 + trial
    return LoadVector(loads=loads, total_rate=100.0)


def _drifting_vector(gen, trial, context):
    """Misbehaving trial fn: total_rate varies per trial stream."""
    return LoadVector(loads=np.ones(4), total_rate=100.0 + gen.random())


class TestResolvers:
    def test_resolve_workers_defaults(self):
        assert resolve_workers(None) == 1
        assert resolve_workers(1) == 1
        assert resolve_workers(3) == 3

    def test_resolve_workers_zero_is_cpu_count(self):
        """``0`` is the count of CPUs this process may run on."""
        if hasattr(os, "sched_getaffinity"):
            assert resolve_workers(0) == len(os.sched_getaffinity(0))
        else:
            assert resolve_workers(0) == (os.cpu_count() or 1)

    def test_resolve_workers_zero_follows_the_affinity_set(self, monkeypatch):
        """A CPU-pinned process gets its pinned count, not the host's."""
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False
        )
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert resolve_workers(0) == 3

    def test_resolve_workers_zero_without_affinity_uses_cpu_count(
        self, monkeypatch
    ):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert resolve_workers(0) == 6

    def test_resolve_workers_rejects_negative(self):
        with pytest.raises(SimulationError):
            resolve_workers(-2)

    def test_resolve_seed_passthrough(self):
        assert resolve_seed(1234) == 1234

    def test_resolve_seed_none_draws_concrete_entropy(self):
        seed = resolve_seed(None)
        assert isinstance(seed, int)
        # The resolved seed must be replayable: same seed -> same report.
        a, _ = run_trials(_uniform_vector, 3, seed=seed)
        b, _ = run_trials(_uniform_vector, 3, seed=seed)
        assert (a.normalized_max_per_trial == b.normalized_max_per_trial).all()


class TestParallelExecutor:
    """``map_trials``, the one parallel trial executor."""

    def test_results_come_back_in_trial_order(self):
        vectors = map_trials(
            _trial_index_vector, 6, seed=7, label="trial", workers=2
        )
        assert [v.loads[0] for v in vectors] == [10.0 + t for t in range(6)]

    def test_parallel_matches_serial_streams(self):
        serial = map_trials(_uniform_vector, 8, seed=11, label="trial")
        parallel = map_trials(
            _uniform_vector, 8, seed=11, label="trial", workers=3
        )
        for a, b in zip(serial, parallel):
            assert (a.loads == b.loads).all()

    def test_lambda_rejected_with_diagnosis(self):
        with pytest.raises(SimulationError, match="picklable"):
            map_trials(
                lambda gen, trial, context: None, 4, seed=1, label="trial",
                workers=2,
            )

    def test_lambda_fine_when_serial(self):
        vectors = map_trials(
            lambda gen, trial, context: LoadVector(
                loads=gen.random(3) + 0.1, total_rate=10.0
            ),
            2,
            seed=1,
            label="trial",
        )
        assert len(vectors) == 2

    def test_zero_trials_rejected(self):
        with pytest.raises(SimulationError):
            map_trials(_uniform_vector, 0, seed=1, label="trial")


class TestRunTrialsWorkers:
    def test_consistency_check_names_offending_trial(self):
        with pytest.raises(SimulationError, match="trial 1 .*relative to trial 0"):
            run_trials(
                _drifting_vector, 3, seed=1, context=RunContext(workers=1)
            )
        # Same contract on the parallel path.
        with pytest.raises(SimulationError, match="relative to trial 0"):
            run_trials(
                _drifting_vector, 3, seed=1, context=RunContext(workers=2)
            )

    def test_seed_recorded_in_metadata(self):
        report, _ = run_trials(_uniform_vector, 2, seed=99)
        assert report.metadata["seed"] == 99
        report, _ = run_trials(_uniform_vector, 2, seed=None)
        assert isinstance(report.metadata["seed"], int)


class TestEngineDeterminism:
    """workers=1 vs workers=4 bit-identical, for both engines (ISSUE 1)."""

    def test_monte_carlo_engine(self):
        attack = AdversarialDistribution(_params().m, 500)
        serial = simulate_distribution(
            _params(), attack, trials=8, seed=42, context=RunContext(workers=1)
        )
        parallel = simulate_distribution(
            _params(), attack, trials=8, seed=42, context=RunContext(workers=4)
        )
        assert (
            serial.normalized_max_per_trial == parallel.normalized_max_per_trial
        ).all()

    def test_event_engine(self):
        kwargs = dict(
            params=_params(),
            distribution=UniformDistribution(2000),
            trials=4,
            n_queries=2000,
            seed=42,
        )
        serial = run_event_campaign(context=RunContext(workers=1), **kwargs)
        parallel = run_event_campaign(context=RunContext(workers=4), **kwargs)
        assert (
            serial.load_report.normalized_max_per_trial
            == parallel.load_report.normalized_max_per_trial
        ).all()
        assert [r.drop_rate for r in serial.results] == [
            r.drop_rate for r in parallel.results
        ]

    def test_monte_carlo_monitor_output(self, tmp_path):
        """The parent-side monitor windows of a chaos campaign, and the
        metrics beside them, do not depend on the worker count."""
        params = _params()
        outputs = []
        for workers in (1, 4):
            registry = MetricsRegistry()
            monitor = LoadMonitor(
                MonitorConfig(n=params.n, c=params.c, d=params.d),
                metrics=registry,
            )
            MonteCarloSimulator(
                params, trials=8, seed=42,
                chaos=ChaosConfig(failure_rate=0.5, mttr=0.5),
                context=RunContext(
                    metrics=registry, monitor=monitor, workers=workers
                ),
            ).distribution_attack(AdversarialDistribution(params.m, 500))
            log = monitor.events.write(tmp_path / f"events-{workers}.jsonl")
            outputs.append((
                log.read_bytes(), monitor.windows, monitor.alerts,
                registry.snapshot(),
            ))
            # Each trial ran under a per-trial context; none recorded.
            assert monitor.summary()["trials_merged"] == 8
        serial, parallel = outputs
        assert serial == parallel
        windows = serial[1]
        assert len(windows) == 8
        assert all("effective_d" in w and "degraded_bound" in w for w in windows)

    def test_event_campaign_records_under_the_one_runner(self):
        """Event campaigns share the runner's series and span names."""
        registry, spans = MetricsRegistry(), Tracer()
        run_event_campaign(
            _params(), UniformDistribution(2000), trials=3, n_queries=2000,
            seed=42, context=RunContext(metrics=registry, spans=spans, workers=2),
        )
        counter = registry.counter("campaign_trials_total", campaign="event-campaign")
        assert counter.value == 3
        histogram = registry.histogram("trial_normalized_max", campaign="event-campaign")
        assert histogram.count == 3
        assert set(spans.aggregates()) == {"trials", "report"}
