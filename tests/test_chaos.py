"""Tests for repro.chaos: schedules, retry policy, config, and the
fault-injected request path of both simulation engines."""

import json

import numpy as np
import pytest

from repro.chaos import (
    EVENT_KINDS,
    ChaosConfig,
    FailureEvent,
    FailureSchedule,
    NodeStateTracker,
    RetryPolicy,
)
from repro.core.notation import SystemParameters
from repro.exceptions import ConfigurationError
from repro.obs import LoadMonitor, MonitorConfig, RunContext
from repro.sim.analytic import MonteCarloSimulator
from repro.sim.eventsim import EventDrivenSimulator
from repro.workload.adversarial import AdversarialDistribution


def _params(**overrides):
    base = dict(n=20, m=500, c=10, d=3, rate=2000.0)
    base.update(overrides)
    return SystemParameters(**base)


class TestFailureEvent:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FailureEvent(time=-1.0, node=0, kind="crash")
        with pytest.raises(ConfigurationError):
            FailureEvent(time=0.0, node=-1, kind="crash")
        with pytest.raises(ConfigurationError):
            FailureEvent(time=0.0, node=0, kind="explode")
        with pytest.raises(ConfigurationError):
            FailureEvent(time=0.0, node=0, kind="slow", factor=0.0)
        with pytest.raises(ConfigurationError):
            FailureEvent(time=0.0, node=0, kind="slow", factor=1.5)

    def test_ordering_is_time_then_node_then_kind(self):
        events = [
            FailureEvent(time=2.0, node=0, kind="crash"),
            FailureEvent(time=1.0, node=5, kind="crash"),
            FailureEvent(time=1.0, node=2, kind="recover"),
            FailureEvent(time=1.0, node=2, kind="crash"),
        ]
        ordered = sorted(events)
        assert [(e.time, e.node, e.kind) for e in ordered] == [
            (1.0, 2, "crash"),
            (1.0, 2, "recover"),
            (1.0, 5, "crash"),
            (2.0, 0, "crash"),
        ]

    def test_dict_round_trip(self):
        slow = FailureEvent(time=0.5, node=3, kind="slow", factor=0.25)
        assert FailureEvent.from_dict(slow.to_dict()) == slow
        crash = FailureEvent(time=0.5, node=3, kind="crash")
        assert "factor" not in crash.to_dict()
        assert FailureEvent.from_dict(crash.to_dict()) == crash

    def test_event_kinds_vocabulary(self):
        assert EVENT_KINDS == ("crash", "recover", "slow", "restore")


class TestFailureSchedule:
    def test_constructor_sorts(self):
        late = FailureEvent(time=2.0, node=0, kind="crash")
        early = FailureEvent(time=1.0, node=1, kind="crash")
        sched = FailureSchedule((late, early))
        assert sched.events == (early, late)
        assert len(sched) == 2
        assert list(sched) == [early, late]

    def test_generate_is_deterministic(self):
        a = FailureSchedule.generate(10, 5.0, failure_rate=0.5, mttr=0.3, rng=42)
        b = FailureSchedule.generate(10, 5.0, failure_rate=0.5, mttr=0.3, rng=42)
        c = FailureSchedule.generate(10, 5.0, failure_rate=0.5, mttr=0.3, rng=43)
        assert a.events == b.events
        assert a.events != c.events
        assert a.crash_count > 0

    def test_generate_pairs_crash_with_recover(self):
        sched = FailureSchedule.generate(8, 10.0, failure_rate=0.4, mttr=0.2, rng=1)
        kinds = [e.kind for e in sched]
        assert kinds.count("crash") == kinds.count("recover")
        # A node's recover always lands after its crash.
        for node in sched.nodes_touched():
            times = [(e.time, e.kind) for e in sched if e.node == node]
            for (t1, k1), (t2, k2) in zip(times, times[1:]):
                assert t1 <= t2

    def test_generate_zero_rate_is_empty(self):
        sched = FailureSchedule.generate(5, 10.0, failure_rate=0.0, mttr=0.5, rng=0)
        assert len(sched) == 0
        assert sched.max_time == 0.0

    def test_generate_validation(self):
        with pytest.raises(ConfigurationError):
            FailureSchedule.generate(0, 1.0, failure_rate=0.1, mttr=0.1)
        with pytest.raises(ConfigurationError):
            FailureSchedule.generate(5, 0.0, failure_rate=0.1, mttr=0.1)
        with pytest.raises(ConfigurationError):
            FailureSchedule.generate(5, 1.0, failure_rate=-0.1, mttr=0.1)
        with pytest.raises(ConfigurationError):
            FailureSchedule.generate(5, 1.0, failure_rate=0.1, mttr=0.0)

    def test_slow_process(self):
        sched = FailureSchedule.generate(
            6, 20.0, failure_rate=0.0, mttr=0.5, rng=3,
            slow_rate=0.5, slow_factor=0.5,
        )
        assert len(sched) > 0
        assert all(e.kind in ("slow", "restore") for e in sched)
        assert all(e.factor == 0.5 for e in sched if e.kind == "slow")

    def test_state_at(self):
        sched = FailureSchedule((
            FailureEvent(time=1.0, node=0, kind="crash"),
            FailureEvent(time=2.0, node=1, kind="slow", factor=0.25),
            FailureEvent(time=3.0, node=0, kind="recover"),
            FailureEvent(time=4.0, node=1, kind="restore"),
        ))
        down, slow = sched.state_at(0.5)
        assert down == frozenset() and slow == {}
        down, slow = sched.state_at(2.5)
        assert down == frozenset({0}) and slow == {1: 0.25}
        down, slow = sched.state_at(10.0)
        assert down == frozenset() and slow == {}

    def test_json_round_trip(self, tmp_path):
        sched = FailureSchedule.generate(
            10, 5.0, failure_rate=0.5, mttr=0.3, rng=7,
            slow_rate=0.2, slow_factor=0.5,
        )
        path = sched.to_json(tmp_path / "schedule.json")
        loaded = FailureSchedule.from_json(path)
        assert loaded == sched
        # Written payload is stable JSON.
        payload = json.loads(path.read_text())
        assert payload["schema"] == 1
        with pytest.raises(ConfigurationError):
            FailureSchedule.from_dict({"schema": 1})


class TestRetryPolicy:
    def test_defaults(self):
        policy = RetryPolicy()
        assert policy.max_attempts == 3
        assert policy.timeout == 0.05

    def test_delay_grows_then_caps(self):
        policy = RetryPolicy(
            max_attempts=6, timeout=0.1, backoff=0.01,
            multiplier=2.0, max_backoff=0.04,
        )
        assert policy.delay(1) == pytest.approx(0.11)
        assert policy.delay(2) == pytest.approx(0.12)
        assert policy.delay(3) == pytest.approx(0.14)
        # 0.01 * 2**3 = 0.08 caps at 0.04.
        assert policy.delay(4) == pytest.approx(0.14)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(timeout=-0.1)
        with pytest.raises(ConfigurationError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy().delay(0)


class TestChaosConfig:
    def test_steady_state_fraction(self):
        cfg = ChaosConfig(failure_rate=0.5, mttr=0.5)
        # Up mean 2.0, down mean 0.5 -> 0.5/2.5.
        assert cfg.steady_state_failed_fraction == pytest.approx(0.2)
        assert ChaosConfig(failure_rate=0.0).steady_state_failed_fraction == 0.0

    def test_schedule_for_prefers_explicit(self):
        explicit = FailureSchedule((FailureEvent(time=0.1, node=0, kind="crash"),))
        cfg = ChaosConfig(schedule=explicit)
        assert cfg.schedule_for(20, 10.0, rng=0) is explicit

    def test_schedule_for_synthesises_deterministically(self):
        cfg = ChaosConfig(failure_rate=0.5, mttr=0.25)
        a = cfg.schedule_for(10, 5.0, rng=11)
        b = cfg.schedule_for(10, 5.0, rng=11)
        assert a == b and len(a) > 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ChaosConfig(failure_rate=-1.0)
        with pytest.raises(ConfigurationError):
            ChaosConfig(mttr=0.0)
        with pytest.raises(ConfigurationError):
            ChaosConfig(slow_factor=2.0)

    def test_spec_schedule_param_loads_the_json_file(self, tmp_path):
        from repro.scenario.build import BuildContext, build_component
        from repro.scenario.spec import ComponentSpec

        schedule = FailureSchedule((FailureEvent(time=0.1, node=0, kind="crash"),))
        path = schedule.to_json(tmp_path / "incident.json")
        built = build_component(
            "chaos",
            ComponentSpec("renewal", {"schedule": str(path), "retry": {"max_attempts": 2}}),
            BuildContext(params=_params()),
        )
        assert built == ChaosConfig(
            schedule=schedule, retry=RetryPolicy(max_attempts=2)
        )

    def test_describe(self):
        # Only what a Monte-Carlo trial simulates: the retry policy and
        # serve_stale are event-engine settings.
        text = ChaosConfig(failure_rate=0.5, mttr=0.5).describe()
        assert text == (
            "chaos: failure_rate=0.5/s, mttr=0.5s "
            "(steady-state down fraction 0.200)"
        )


class TestNodeStateTracker:
    def test_apply_and_queries(self):
        tracker = NodeStateTracker(4)
        assert tracker.down_count == 0
        assert tracker.apply(FailureEvent(time=0.1, node=1, kind="crash"))
        # Second crash of the same node is a no-op.
        assert not tracker.apply(FailureEvent(time=0.2, node=1, kind="crash"))
        assert not tracker.is_up(1)
        assert tracker.down_count == 1
        assert tracker.down_fraction == pytest.approx(0.25)
        assert tracker.down_nodes() == (1,)
        assert tracker.surviving([0, 1, 2]) == (0, 2)
        assert tracker.apply(FailureEvent(time=0.3, node=1, kind="recover"))
        assert not tracker.apply(FailureEvent(time=0.4, node=1, kind="recover"))
        assert tracker.down_count == 0

    def test_slow_restore(self):
        tracker = NodeStateTracker(2)
        assert tracker.rate_factor(0) == 1.0
        assert tracker.apply(FailureEvent(time=0.1, node=0, kind="slow", factor=0.5))
        assert tracker.rate_factor(0) == 0.5
        assert not tracker.apply(
            FailureEvent(time=0.2, node=0, kind="slow", factor=0.5)
        )
        assert tracker.apply(FailureEvent(time=0.3, node=0, kind="restore"))
        assert not tracker.apply(FailureEvent(time=0.4, node=0, kind="restore"))

    def test_out_of_range_node(self):
        tracker = NodeStateTracker(2)
        with pytest.raises(ConfigurationError):
            tracker.apply(FailureEvent(time=0.1, node=5, kind="crash"))


class TestEventEngineChaos:
    """The live failover path: acceptance criteria from the issue."""

    @pytest.fixture(scope="class")
    def chaos_run(self):
        params = _params()
        monitor = LoadMonitor(MonitorConfig.from_params(params, x=11, window=0.05))
        chaos = ChaosConfig(failure_rate=0.5, mttr=0.5)
        sim = EventDrivenSimulator(
            params, AdversarialDistribution(500, 11), seed=7,
            chaos=chaos, context=RunContext(monitor=monitor),
        )
        result = sim.run(4000, trial=0)
        return params, monitor, result

    def test_failures_actually_happen(self, chaos_run):
        _, _, result = chaos_run
        assert result.failure_events > 0
        assert result.retries > 0
        assert result.failovers > 0

    def test_accounting_invariant(self, chaos_run):
        _, _, result = chaos_run
        served = int(result.served.sum())
        dropped = int(result.dropped.sum())
        assert served + dropped + result.unavailable == result.backend_queries
        assert result.crash_lost <= dropped

    def test_effective_d_degrades_below_d(self, chaos_run):
        params, monitor, _ = chaos_run
        eff = [
            w["effective_d"] for w in monitor.windows if "effective_d" in w
        ]
        assert eff, "chaos windows must carry effective_d"
        assert min(eff) < params.d
        assert all(e <= params.d for e in eff)

    def test_degraded_bound_exceeds_healthy_bound(self, chaos_run):
        params, monitor, _ = chaos_run
        config = monitor.config
        healthy = config.bound_for(x=11)
        degraded = [
            w["degraded_bound"]
            for w in monitor.windows
            if w.get("effective_d", params.d) < params.d
            and w.get("degraded_bound") is not None
        ]
        assert degraded, "degraded windows must refresh the bound"
        assert max(degraded) > healthy

    def test_degraded_bound_alert_fires(self, chaos_run):
        _, monitor, _ = chaos_run
        rules = {a["rule"] for a in monitor.alerts}
        assert "degraded-bound" in rules

    def test_summary_has_chaos_fields(self, chaos_run):
        params, monitor, result = chaos_run
        summary = monitor.summaries[-1]
        assert summary["unavailable"] == result.unavailable
        assert summary["effective_d_min"] < params.d

    def test_node_event_records_logged(self, chaos_run):
        _, monitor, result = chaos_run
        node_events = [
            r for r in monitor.events.records if r["type"] == "node-event"
        ]
        assert len(node_events) == result.failure_events
        assert all(r["nodes_down"] >= 0 for r in node_events)

    def test_explicit_schedule_replayed(self):
        params = _params()
        schedule = FailureSchedule(
            tuple(
                FailureEvent(time=0.01, node=node, kind="crash")
                for node in range(params.n - 1)
            )
        )
        chaos = ChaosConfig(
            schedule=schedule, serve_stale=False,
            retry=RetryPolicy(max_attempts=3, timeout=0.001, backoff=0.001),
        )
        sim = EventDrivenSimulator(
            params, AdversarialDistribution(500, 11), seed=7, chaos=chaos,
        )
        result = sim.run(1000, trial=0)
        assert result.failure_events == params.n - 1
        # Most keys lose all replicas to the single surviving node.
        assert result.unavailable > 0
        assert result.stale_hits == 0

    def test_serve_stale_counts_separately(self):
        params = _params()
        # Crash everything after a warmup window so refetches hit stale.
        schedule = FailureSchedule(
            tuple(
                FailureEvent(time=0.5, node=node, kind="crash")
                for node in range(params.n)
            )
        )
        chaos = ChaosConfig(schedule=schedule, serve_stale=True)
        sim = EventDrivenSimulator(
            params, AdversarialDistribution(500, 11), seed=7, chaos=chaos,
        )
        result = sim.run(4000, trial=0)
        assert result.unavailable > 0
        assert 0 < result.stale_hits <= result.unavailable

    def test_chaos_off_has_no_chaos_artifacts(self):
        params = _params()
        sim = EventDrivenSimulator(
            params, AdversarialDistribution(500, 11), seed=7,
        )
        result = sim.run(1000, trial=0)
        assert result.failure_events == 0
        assert result.unavailable == 0
        assert result.retries == 0
        assert result.crash_lost == 0


class TestMonteCarloChaos:
    def test_selection_guard(self):
        with pytest.raises(ConfigurationError):
            MonteCarloSimulator(
                _params(), trials=2, seed=1, selection="random",
                chaos=ChaosConfig(),
            )

    def test_explicit_schedule_rejected(self):
        # Trials sample the steady-state failed fraction; replaying an
        # explicit schedule would need a clock they do not have.
        schedule = FailureSchedule([FailureEvent(0.1, 3, "crash")])
        with pytest.raises(ConfigurationError, match="explicit failure schedule"):
            MonteCarloSimulator(
                _params(), trials=2, seed=1, chaos=ChaosConfig(schedule=schedule)
            )

    def test_metadata_carries_effective_d(self):
        chaos = ChaosConfig(failure_rate=0.5, mttr=0.5)  # f = 0.2
        params = _params()
        report = MonteCarloSimulator(
            params, trials=3, seed=5, chaos=chaos
        ).distribution_attack(AdversarialDistribution(params.m, 11))
        assert report.metadata["failed_fraction"] == pytest.approx(0.2)
        assert report.metadata["effective_d"] == pytest.approx(2.4)

    def test_degradation_worsens_gain(self):
        params = _params(n=50, m=2000, c=25, rate=10_000.0)
        healthy = MonteCarloSimulator(
            params, trials=20, seed=9
        ).distribution_attack(AdversarialDistribution(params.m, 2000))
        degraded = MonteCarloSimulator(
            params, trials=20, seed=9,
            chaos=ChaosConfig(failure_rate=1.0, mttr=1.0),  # f = 0.5
        ).distribution_attack(AdversarialDistribution(params.m, 2000))
        assert degraded.mean > healthy.mean

    def test_monitor_window_gets_degraded_bound(self):
        params = _params()
        monitor = LoadMonitor(MonitorConfig.from_params(params, x=11))
        chaos = ChaosConfig(failure_rate=0.5, mttr=0.5)
        MonteCarloSimulator(
            params, trials=3, seed=5, chaos=chaos,
            context=RunContext(monitor=monitor),
        ).distribution_attack(AdversarialDistribution(params.m, 11))
        windows = [w for w in monitor.windows if "effective_d" in w]
        assert windows
        for w in windows:
            assert w["effective_d"] == pytest.approx(2.4)
            assert w["degraded_bound"] > monitor.config.bound_for(x=11)
        rules = {a["rule"] for a in monitor.alerts}
        assert "degraded-bound" in rules

    def test_chaos_part_of_config_identity(self):
        # Chaos changes results, so a campaign's report records it.
        attack = AdversarialDistribution(_params().m, 11)
        plain = MonteCarloSimulator(_params(), trials=2, seed=1)
        chaotic = MonteCarloSimulator(
            _params(), trials=2, seed=1, chaos=ChaosConfig(failure_rate=0.5)
        )
        assert "failed_fraction" not in plain.distribution_attack(attack).metadata
        assert "failed_fraction" in chaotic.distribution_attack(attack).metadata
        with pytest.raises(ConfigurationError):
            MonteCarloSimulator(_params(), trials=2, chaos="not-a-config")


class TestDegradedBoundMath:
    def test_matches_formula(self):
        config = MonitorConfig(n=1000, c=200, d=3, x=201, k_prime=0.75)
        d_eff = 2.4
        expected = 1.0 + (
            1.0 - 200 + 1000 * (np.log(np.log(1000)) / np.log(d_eff) + 0.75)
        ) / (201 - 1)
        assert config.degraded_bound_for(201, d_eff) == pytest.approx(expected)

    def test_grows_as_d_eff_shrinks(self):
        config = MonitorConfig(n=1000, c=200, d=3, x=201, k_prime=0.75)
        bounds = [config.degraded_bound_for(201, d) for d in (3.0, 2.5, 2.0, 1.5)]
        assert all(b is not None for b in bounds)
        assert bounds == sorted(bounds)

    def test_degenerate_cases(self):
        config = MonitorConfig(n=1000, c=200, d=3, x=201, k_prime=0.75)
        assert config.degraded_bound_for(201, None) is None
        assert config.degraded_bound_for(201, 1.0) is None
        assert config.degraded_bound_for(None, 2.0) is None
        assert config.degraded_bound_for(100, 2.0) is None  # x <= c
        # Tiny n clamps the log log term to zero rather than going
        # negative/complex.
        tiny = MonitorConfig(n=2, c=0, d=2, x=5, k_prime=0.75)
        assert tiny.degraded_bound_for(5, 1.5) == pytest.approx(
            1.0 + (1.0 + 2 * 0.75) / 4.0
        )
