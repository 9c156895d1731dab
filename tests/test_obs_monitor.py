"""Contract tests for the online attack monitor (``repro.obs.monitor``).

Three acceptance properties anchor the suite:

1. the monitor's final streaming gain equals the event engine's
   end-of-run ``EventSimResult.normalized_max``;
2. monitor output (windows, alerts, summaries, the event log) is
   bit-identical across worker counts;
3. the ``entropy-flat`` rule separates the Theorem-1 uniform-prefix
   fingerprint from a benign Zipf baseline.

Plus the window/batch entropy parity against the detection oracle,
and the smaller pieces (exact summary quantiles, event-log roundtrip,
bound computation, the null monitor).
"""

import json
import math

import numpy as np
import pytest

import detection_oracle as detection
from event_oracle import hand_columns
from repro.core.bounds import fold_constant_k
from repro.core.notation import SystemParameters
from repro.exceptions import ConfigurationError
from repro.obs import (
    NULL_MONITOR,
    EventLog,
    LoadMonitor,
    MetricsRegistry,
    MonitorConfig,
    RunContext,
    render_html,
    render_text,
)
from repro.obs.monitor import FLATNESS_THRESHOLD
from repro.sim.batch import run_event_campaign
from repro.sim.eventsim import EventDrivenSimulator
from repro.types import LoadVector
from repro.workload.adversarial import AdversarialDistribution
from repro.workload.distributions import UniformDistribution
from repro.workload.zipf import ZipfDistribution

PARAMS = SystemParameters(n=50, m=5_000, c=20, d=3, rate=1e5)
SEED = 11


def _run_monitored(distribution, x=500, window=0.05, n_queries=15_000, seed=SEED):
    monitor = LoadMonitor(MonitorConfig.from_params(PARAMS, x=x, window=window))
    result = EventDrivenSimulator(
        PARAMS, distribution, seed=seed, context=RunContext(monitor=monitor)
    ).run(n_queries)
    return monitor, result


class TestStreamingEntropyParity:
    """The flatness score of a window the monitor emits must equal the
    batch profile of its keys."""

    def _counts_for(self, regime):
        rng = np.random.default_rng(7)
        if regime == "flash-crowd":
            # One overwhelming key plus a thin tail: entropy near 0.
            return np.array([20_000, 12, 9, 5, 3, 1, 1], dtype=np.int64)
        if regime == "zipf":
            return ZipfDistribution(800, s=1.01).sample_counts(30_000, rng=rng)
        if regime == "uniform-prefix":
            # Theorem 1's optimal pattern: flat over x of m keys.
            return AdversarialDistribution(2_000, 400).sample_counts(30_000, rng=rng)
        raise AssertionError(regime)

    def _window_of(self, counts):
        """The one window a monitor reports for these key counts, shuffled."""
        keys = np.random.default_rng(3).permutation(np.repeat(np.arange(counts.size), counts))
        monitor = LoadMonitor(MonitorConfig(window=1.0))
        monitor.observe(hand_columns(np.linspace(0.0, 0.5, keys.size), keys), n=1, rate=1.0)
        (window,) = monitor.windows
        return window

    @pytest.mark.parametrize("regime", ["flash-crowd", "zipf", "uniform-prefix"])
    def test_streamed_equals_batch(self, regime):
        counts = self._counts_for(regime)
        window = self._window_of(counts)
        batch = detection.profile_counts(counts)
        assert window["requests"] == batch.total_queries
        assert window["distinct_keys"] == batch.distinct_keys
        assert window["normalized_entropy"] == pytest.approx(
            batch.normalized_entropy, abs=1e-9
        )
        assert window["top_key_share"] == pytest.approx(batch.top_key_share, abs=1e-12)

    def test_regimes_order_as_documented(self):
        """flash crowd << zipf << uniform prefix, on either implementation."""
        scores = {}
        for regime in ("flash-crowd", "zipf", "uniform-prefix"):
            scores[regime] = detection.profile_counts(
                self._counts_for(regime)
            ).normalized_entropy
        assert scores["flash-crowd"] < 0.5
        assert scores["flash-crowd"] < scores["zipf"] < scores["uniform-prefix"]
        assert scores["uniform-prefix"] > FLATNESS_THRESHOLD

    def test_threshold_matches_detection_module(self):
        """monitor.py hardcodes the threshold to stay off the scipy import
        path; the two constants must never drift apart."""
        assert FLATNESS_THRESHOLD == detection.FLATNESS_THRESHOLD

    def test_streaming_edge_cases(self):
        # One distinct key: defined as 0, matching profile_counts.
        counts = np.array([0, 0, 4, 0], dtype=np.int64)
        window = self._window_of(counts)
        assert window["distinct_keys"] == detection.profile_counts(counts).distinct_keys == 1
        assert window["normalized_entropy"] == 0.0
        assert window["top_key_share"] == 1.0


class TestFinalGainMatchesEngine:
    """Acceptance: streaming gain == end-of-run normalized max (<1%)."""

    @pytest.mark.parametrize(
        "distribution",
        [
            AdversarialDistribution(PARAMS.m, 500),
            UniformDistribution(PARAMS.m),
            ZipfDistribution(PARAMS.m, s=1.01),
        ],
        ids=["adversarial", "uniform", "zipf"],
    )
    def test_final_gain_tracks_result(self, distribution):
        monitor, result = _run_monitored(distribution)
        assert monitor.final_gain == pytest.approx(result.normalized_max, rel=0.01)
        summary = monitor.summaries[-1]
        assert summary["final_gain"] == pytest.approx(result.normalized_max, rel=0.01)

    def test_running_gain_converges_to_final(self):
        monitor, result = _run_monitored(AdversarialDistribution(PARAMS.m, 500))
        last_window = monitor.windows[-1]
        assert last_window["running_gain"] == pytest.approx(
            result.normalized_max, rel=0.01
        )


class TestWorkerDeterminism:
    """Acceptance: monitor output is bit-identical across worker counts."""

    def _campaign(self, workers):
        monitor = LoadMonitor(
            MonitorConfig.from_params(PARAMS, x=500, window=0.05)
        )
        run_event_campaign(
            PARAMS,
            AdversarialDistribution(PARAMS.m, 500),
            trials=4,
            n_queries=6_000,
            seed=SEED,
            context=RunContext(monitor=monitor, workers=workers),
        )
        return monitor

    def test_windows_alerts_identical_serial_vs_parallel(self):
        serial = self._campaign(workers=1)
        parallel = self._campaign(workers=4)
        assert serial.windows == parallel.windows
        assert serial.alerts == parallel.alerts
        assert serial.summaries == parallel.summaries
        assert serial.final_gain == parallel.final_gain
        assert serial.max_gain == parallel.max_gain
        assert list(serial.events.records) == list(parallel.events.records)
        # The whole JSONL stream, not just the Python objects.
        serial_lines = [json.dumps(r, sort_keys=True) for r in serial.events.records]
        parallel_lines = [
            json.dumps(r, sort_keys=True) for r in parallel.events.records
        ]
        assert serial_lines == parallel_lines

    def test_trials_arrive_in_order(self):
        monitor = self._campaign(workers=4)
        trials = [s["trial"] for s in monitor.summaries]
        assert trials == sorted(trials)
        assert len(trials) == 4


class TestCampaignNodeLoads:
    """A campaign monitor's node-load quantiles cover every trial's
    windows: each per-trial snapshot ships its normalised node loads,
    and the merge feeds them in trial order."""

    TRIALS = 3

    def _config(self):
        return MonitorConfig.from_params(PARAMS, x=500, window=0.05)

    def _campaign(self, workers):
        monitor = LoadMonitor(self._config())
        run_event_campaign(
            PARAMS,
            AdversarialDistribution(PARAMS.m, 500),
            trials=self.TRIALS,
            n_queries=6_000,
            seed=SEED,
            context=RunContext(monitor=monitor, workers=workers),
        )
        return monitor

    def test_count_is_every_window_node_pair(self):
        monitor = self._campaign(workers=1)
        pairs = sum(w["nodes_active"] for w in monitor.windows if w["seconds"] > 0)
        assert pairs > 0
        assert monitor.summary()["node_load_quantiles"]["count"] == pairs

    def test_identical_across_workers_and_to_one_monitor(self):
        serial = self._campaign(workers=1).summary()["node_load_quantiles"]
        parallel = self._campaign(workers=4).summary()["node_load_quantiles"]
        direct = LoadMonitor(self._config())
        for trial in range(self.TRIALS):
            EventDrivenSimulator(
                PARAMS, AdversarialDistribution(PARAMS.m, 500), seed=SEED,
                context=RunContext(monitor=direct),
            ).run(6_000, trial=trial)
        assert serial == parallel == direct.summary()["node_load_quantiles"]


class TestEntropyAlertSeparatesRegimes:
    """Acceptance: Theorem-1 traffic trips ``entropy-flat``; Zipf does not."""

    def test_uniform_prefix_fires(self):
        monitor, _ = _run_monitored(AdversarialDistribution(PARAMS.m, 500))
        rules = {alert["rule"] for alert in monitor.alerts}
        assert "entropy-flat" in rules
        # Every window of the optimal attack looks flat.
        assert all(
            w["normalized_entropy"] > FLATNESS_THRESHOLD for w in monitor.windows
        )

    def test_zipf_baseline_stays_quiet(self):
        monitor, _ = _run_monitored(ZipfDistribution(PARAMS.m, s=1.01))
        rules = {alert["rule"] for alert in monitor.alerts}
        assert "entropy-flat" not in rules
        assert all(
            w["normalized_entropy"] < FLATNESS_THRESHOLD for w in monitor.windows
        )

    def test_alert_records_carry_context(self):
        monitor, _ = _run_monitored(AdversarialDistribution(PARAMS.m, 500))
        alert = next(a for a in monitor.alerts if a["rule"] == "entropy-flat")
        assert alert["type"] == "alert"
        assert alert["value"] > alert["threshold"] or alert["value"] == pytest.approx(
            alert["threshold"]
        )
        assert alert["trial"] == 0

    def test_alerts_land_in_metrics(self):
        registry = MetricsRegistry()
        monitor = LoadMonitor(
            MonitorConfig.from_params(PARAMS, x=500, window=0.05), metrics=registry
        )
        EventDrivenSimulator(
            PARAMS, AdversarialDistribution(PARAMS.m, 500), seed=SEED,
            context=RunContext(monitor=monitor),
        ).run(15_000)
        fired = registry.counter("monitor_alerts_total", rule="entropy-flat").value
        assert fired == sum(
            1 for a in monitor.alerts if a["rule"] == "entropy-flat"
        )
        assert fired > 0


class TestBoundComputation:
    def test_matches_theorem_two_formula(self):
        config = MonitorConfig.from_params(PARAMS, x=500)
        k = fold_constant_k(PARAMS.n, PARAMS.d, config.k_prime)
        expected = 1.0 + (1.0 - PARAMS.c + PARAMS.n * k) / (500 - 1)
        assert config.bound_for(500) == pytest.approx(expected)

    def test_none_when_x_at_or_below_cache(self):
        config = MonitorConfig.from_params(PARAMS, x=None)
        assert config.bound_for(None) is None
        assert config.bound_for(PARAMS.c) is None
        assert config.bound_for(1) is None

    def test_explicit_bound_wins(self):
        config = MonitorConfig(n=100, c=10, d=3, x=50, bound=2.5)
        assert config.bound_for(50) == 2.5
        assert config.bound_for(10_000, n=1, c=0, d=1) == 2.5

    def test_sweep_overrides_take_precedence(self):
        config = MonitorConfig(n=100, c=10, d=3)
        base = config.bound_for(50)
        wider_cache = config.bound_for(50, c=40)
        assert wider_cache < base  # larger c shrinks the numerator

    def test_d1_needs_explicit_k(self):
        assert MonitorConfig(n=100, c=10, d=1).bound_for(50) is None
        assert MonitorConfig(n=100, c=10, d=1, k=1.2).bound_for(50) is not None

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            MonitorConfig(window=0.0)
        with pytest.raises(ConfigurationError):
            MonitorConfig(overload_factor=-1.0)
        with pytest.raises(ConfigurationError):
            MonitorConfig(rules=("no-such-rule",))


class TestTrialPath:
    def _vector(self, peak):
        loads = np.full(PARAMS.n, 10.0)
        loads[3] = peak
        return LoadVector(loads=loads, total_rate=PARAMS.rate)

    def test_each_trial_becomes_one_window(self):
        monitor = LoadMonitor(MonitorConfig.from_params(PARAMS))
        for t in range(3):
            monitor.record_trial(t, self._vector(2_500.0), campaign="fig3a", x=500)
        assert len(monitor.windows) == 3
        assert [w["trial"] for w in monitor.windows] == [0, 1, 2]
        assert all(w["clock"] == "trial" for w in monitor.windows)
        assert all(w["campaign"] == "fig3a" for w in monitor.windows)
        vector = self._vector(2_500.0)
        assert monitor.final_gain == pytest.approx(vector.normalized_max)

    def test_node_overload_rule_on_trial_windows(self):
        monitor = LoadMonitor(MonitorConfig.from_params(PARAMS))
        even = PARAMS.rate / PARAMS.n  # 2000 qps
        monitor.record_trial(0, self._vector(peak=even * 1.5))
        monitor.record_trial(1, self._vector(peak=even * 5.0))
        rules = [a["rule"] for a in monitor.alerts]
        assert rules == ["node-overload"]
        assert monitor.alerts[0]["trial"] == 1


class TestEventLogRoundtrip:
    def test_write_then_read_is_identity(self, tmp_path):
        monitor, _ = _run_monitored(AdversarialDistribution(PARAMS.m, 500))
        monitor.emit_manifest(engine="test")
        path = tmp_path / "events.jsonl"
        monitor.events.write(path)
        assert EventLog.read(path).records == list(monitor.events.records)

    def test_records_are_strict_json(self):
        monitor, _ = _run_monitored(UniformDistribution(PARAMS.m))
        for record in monitor.events.records:
            # allow_nan=False raises on NaN/inf; the monitor must have
            # already mapped non-finite values to None.
            json.dumps(record, allow_nan=False)

    def test_manifest_emitted_once(self):
        monitor = LoadMonitor(MonitorConfig())
        first = monitor.emit_manifest(engine="event-driven")
        second = monitor.emit_manifest(engine="event-driven")
        assert first is not None and first["type"] == "manifest"
        assert second is None
        manifests = [r for r in monitor.events.records if r["type"] == "manifest"]
        assert len(manifests) == 1


class TestSummaryQuantiles:
    """``summary()`` reports exact nearest-rank quantiles of each series."""

    @staticmethod
    def _node_loads(values):
        monitor = LoadMonitor(MonitorConfig())
        monitor.merge_trial({"records": [], "node_loads": list(values), "final_gain": None})
        return monitor.summary()["node_load_quantiles"]

    def test_tracks_known_quantiles(self):
        values = np.random.default_rng(5).normal(10.0, 2.0, size=5_000).tolist()
        got = self._node_loads(values)
        ordered = sorted(values)
        for name, q in (("p50", 0.5), ("p95", 0.95), ("p99", 0.99)):
            assert got[name] == ordered[math.ceil(q * len(values)) - 1]

    def test_reports_exact_extremes(self):
        """count, min and max are exact, and the mean divides a
        sequential sum in feed order."""
        values = np.random.default_rng(5).normal(10.0, 2.0, size=5_000).tolist()
        got = self._node_loads(values)
        total = 0.0
        for value in values:
            total += value
        assert got["count"] == 5_000
        assert got["mean"] == total / 5_000
        assert (got["min"], got["max"]) == (min(values), max(values))

    def test_small_streams_are_exact(self):
        """Below five values the P² sketch returned the nearest rank of
        its buffered values; those outputs stay."""
        cases = [
            ((), (None, None, None)),
            ((2.5,), (2.5, 2.5, 2.5)),
            ((3.0, 1.0), (1.0, 3.0, 3.0)),
            ((3.0, 1.0, 2.0), (2.0, 3.0, 3.0)),
            ((4.0, 1.0, 3.0, 2.0), (2.0, 4.0, 4.0)),
        ]
        for values, expected in cases:
            got = self._node_loads(values)
            assert (got["p50"], got["p95"], got["p99"]) == expected
            assert got["count"] == len(values)

    def test_gain_series_come_from_every_trial(self):
        monitor = LoadMonitor(MonitorConfig())
        for gain in (1.5, 0.5, 3.0, 2.0, 2.5, 1.0):
            monitor.merge_trial({"records": [], "node_loads": [], "final_gain": gain})
        got = monitor.summary()["gain_quantiles"]
        assert (got["p50"], got["p95"], got["count"], got["mean"]) == (1.5, 3.0, 6, 1.75)


class TestNullMonitor:
    def test_is_inert(self):
        assert NULL_MONITOR.enabled is False
        summary = NULL_MONITOR.observe(
            hand_columns([0.0], [1], outcome=[2]), n=10, rate=1.0
        )
        assert summary is None
        assert NULL_MONITOR.record_trial(0, None) == {}
        assert NULL_MONITOR.snapshot()["records"] == []
        assert NULL_MONITOR.events.records == []
        assert NULL_MONITOR.windows == []

    def test_attaching_never_changes_a_result(self):
        dist = AdversarialDistribution(PARAMS.m, 500)
        bare = EventDrivenSimulator(PARAMS, dist, seed=SEED).run(6_000)
        nulled = EventDrivenSimulator(
            PARAMS, dist, seed=SEED, context=RunContext(monitor=NULL_MONITOR)
        ).run(6_000)
        live = EventDrivenSimulator(
            PARAMS,
            dist,
            seed=SEED,
            context=RunContext(monitor=LoadMonitor(MonitorConfig(window=0.05))),
        ).run(6_000)
        for other in (nulled, live):
            assert other.normalized_max == bare.normalized_max
            assert (other.served == bare.served).all()
            assert other.cache_hit_rate == bare.cache_hit_rate


class TestDashboards:
    def test_render_text_mentions_the_essentials(self):
        monitor, _ = _run_monitored(AdversarialDistribution(PARAMS.m, 500))
        panel = render_text(monitor)
        assert "gain" in panel
        assert "entropy-flat" in panel

    def test_render_html_is_standalone(self):
        monitor, _ = _run_monitored(AdversarialDistribution(PARAMS.m, 500))
        page = render_html(monitor, title="attack")
        assert page.startswith("<!DOCTYPE html>") or "<html" in page
        assert "svg" in page

    def test_renderers_cope_with_empty_monitor(self):
        monitor = LoadMonitor(MonitorConfig())
        assert render_text(monitor)
        assert render_html(monitor)
