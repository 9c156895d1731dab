"""Determinism contracts for fault-injected campaigns.

Chaos must be an execution detail like parallelism, never a semantics
change: the same seed and schedule produce bit-identical results for
every worker count, and repeated runs reproduce each other exactly.
"""

import json

import numpy as np

from repro.chaos import ChaosConfig, RetryPolicy
from repro.core.notation import SystemParameters
from repro.obs import LoadMonitor, MonitorConfig, RunContext
from repro.sim.analytic import MonteCarloSimulator
from repro.sim.batch import run_event_campaign
from repro.workload.adversarial import AdversarialDistribution


def _params():
    return SystemParameters(n=20, m=500, c=10, d=3, rate=2000.0)


def _chaos():
    return ChaosConfig(
        failure_rate=0.5, mttr=0.5,
        retry=RetryPolicy(max_attempts=3, timeout=0.01, backoff=0.005),
    )


def _canon(records):
    """Canonical JSON form for record-list comparison."""
    return json.dumps(records, sort_keys=True, default=float)


def _event_campaign(workers: int):
    params = _params()
    monitor = LoadMonitor(MonitorConfig.from_params(params, x=11, window=0.05))
    campaign = run_event_campaign(
        params,
        AdversarialDistribution(500, 11),
        trials=4,
        n_queries=1500,
        seed=13,
        chaos=_chaos(),
        context=RunContext(monitor=monitor, workers=workers),
    )
    return campaign, monitor


def _result_fingerprint(result):
    return (
        result.duration,
        result.backend_queries,
        result.frontend_hits,
        result.served.tolist(),
        result.dropped.tolist(),
        result.unavailable,
        result.stale_hits,
        result.retries,
        result.failovers,
        result.crash_lost,
        result.failure_events,
        result.arrival_loads.loads.tolist(),
    )


class TestEventCampaignDeterminism:
    def test_serial_matches_workers_4(self):
        serial, serial_mon = _event_campaign(workers=1)
        parallel, parallel_mon = _event_campaign(workers=4)
        assert serial.trials == parallel.trials == 4
        for a, b in zip(serial.results, parallel.results):
            assert _result_fingerprint(a) == _result_fingerprint(b)
        assert _canon(serial_mon.windows) == _canon(parallel_mon.windows)
        assert _canon(serial_mon.alerts) == _canon(parallel_mon.alerts)
        assert _canon(serial_mon.summaries) == _canon(parallel_mon.summaries)
        # The chaos actually did something, so the equality is non-vacuous.
        assert serial.total_failure_events > 0

    def test_repeat_run_is_bit_identical(self):
        first, _ = _event_campaign(workers=1)
        second, _ = _event_campaign(workers=1)
        for a, b in zip(first.results, second.results):
            assert _result_fingerprint(a) == _result_fingerprint(b)

    def test_trials_draw_independent_schedules(self):
        campaign, _ = _event_campaign(workers=1)
        fingerprints = {r.failure_events for r in campaign.results} | {
            r.retries for r in campaign.results
        }
        # Per-trial schedules come from per-trial RNG streams; four
        # trials collapsing onto one value would mean a shared stream.
        assert len(fingerprints) > 1


class TestMonteCarloDeterminism:
    def _report(self, workers: int):
        sim = MonteCarloSimulator(
            _params(), trials=8, seed=21, chaos=_chaos(),
            context=RunContext(workers=workers),
        )
        return sim.distribution_attack(AdversarialDistribution(_params().m, 11))

    def test_serial_matches_workers_4(self):
        serial = self._report(workers=1)
        parallel = self._report(workers=4)
        np.testing.assert_array_equal(
            serial.normalized_max_per_trial, parallel.normalized_max_per_trial
        )

    def test_chaos_changes_the_trials(self):
        # The full-keyspace attack spreads load over every node, so
        # degradation visibly re-concentrates it (x = c + 1 puts a
        # single ball on one node either way).
        healthy = MonteCarloSimulator(
            _params(), trials=8, seed=21
        ).distribution_attack(AdversarialDistribution(_params().m, 500))
        chaotic = MonteCarloSimulator(
            _params(), trials=8, seed=21, chaos=_chaos()
        ).distribution_attack(AdversarialDistribution(_params().m, 500))
        assert not np.array_equal(
            healthy.normalized_max_per_trial, chaotic.normalized_max_per_trial
        )
