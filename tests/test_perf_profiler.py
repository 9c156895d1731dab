"""Profiler contract: deterministic op-counters, spans, memory, no-op path.

The two load-bearing guarantees from ISSUE 5:

- **determinism** — op-counters recorded through the engines' metrics
  seams are bit-identical for every worker count (trial-order merge);
- **non-interference** — attaching a profiler never changes an engine
  result, and the disabled path stays byte-identical to the committed
  golden fixture.
"""

import json
import math
from pathlib import Path

import numpy as np

from repro.core.notation import SystemParameters
from repro.obs import (
    NULL_REGISTRY,
    NULL_TRACER,
    LoadMonitor,
    MonitorConfig,
    RunContext,
)
from repro.perf import Profiler
from repro.sim.analytic import simulate_uniform_attack
from repro.sim.eventsim import EventDrivenSimulator
from repro.workload.adversarial import AdversarialDistribution

GOLDEN_DIR = Path(__file__).parent / "golden"

PARAMS = SystemParameters(n=50, m=1000, c=10, d=3, rate=10_000.0)


class TickClock:
    """Deterministic clock: +1.0 per call, starting at 0.0."""

    def __init__(self):
        self.now = -1.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


class TestOpCounters:
    def test_count_and_flat_keys(self):
        p = Profiler()
        p.count("requests_total")
        p.count("requests_total", 4)
        p.count("cache_ops_total", 2, kind="get")
        counts = p.op_counts()
        assert counts["requests_total"] == 5
        assert counts["cache_ops_total{kind=get}"] == 2

    def test_metrics_seam_is_the_registry(self):
        p = Profiler()
        p.metrics.counter("balls_total").inc(7)
        assert p.op_counts()["balls_total"] == 7


class TestSpans:
    def test_span_arithmetic_with_injected_clock(self):
        p = Profiler(clock=TickClock())
        with p.span("outer"):
            with p.span("inner"):
                pass
        aggregates = p.span_aggregates()
        # Calls: outer-open=0, inner-open=1, inner-close=2, outer-close=3.
        assert aggregates["outer"]["total_seconds"] == 3.0
        assert aggregates["outer/inner"]["total_seconds"] == 1.0
        assert aggregates["outer"]["count"] == 1


class TestMemoryCapture:
    def test_snapshot_shape(self):
        p = Profiler()
        p.count("x")
        with p.span("s"):
            pass
        snap = p.snapshot()
        assert snap["ops"] == {"x": 1}
        assert "s" in snap["spans"]
        assert "tracemalloc_peak_bytes" in snap["memory"]


class TestDeterminismAcrossWorkers:
    """ISSUE 5 acceptance: op-counters bit-identical serial vs workers=4."""

    def _campaign_counts(self, workers: int) -> dict:
        profiler = Profiler()
        simulate_uniform_attack(
            PARAMS, 60, trials=8, seed=42,
            context=RunContext(metrics=profiler.metrics, workers=workers),
        )
        return profiler.op_counts()

    def test_monte_carlo_counters_identical_serial_vs_parallel(self):
        serial = self._campaign_counts(workers=1)
        parallel = self._campaign_counts(workers=4)
        assert serial, "campaign recorded no op-counters"
        assert serial == parallel

    def test_counters_identical_across_repeat_runs(self):
        assert self._campaign_counts(workers=1) == self._campaign_counts(workers=1)

    def test_eventsim_counters_identical_across_runs(self):
        def run_once() -> dict:
            profiler = Profiler()
            sim = EventDrivenSimulator(
                PARAMS, AdversarialDistribution(PARAMS.m, 60), seed=9,
                context=RunContext(metrics=profiler.metrics),
            )
            sim.run(2000, trial=0)
            return profiler.op_counts()

        first, second = run_once(), run_once()
        assert first, "eventsim recorded no op-counters"
        assert first == second


class TestNonInterference:
    """Attaching a profiler never changes an engine result."""

    def test_monte_carlo_result_unchanged_by_profiler(self):
        bare = simulate_uniform_attack(PARAMS, 60, trials=6, seed=7)
        profiler = Profiler()
        observed = simulate_uniform_attack(
            PARAMS, 60, trials=6, seed=7,
            context=RunContext(metrics=profiler.metrics),
        )
        assert (
            observed.normalized_max_per_trial == bare.normalized_max_per_trial
        ).all()

    def test_disabled_path_matches_committed_golden_fixture(self):
        """Replays the golden eventsim run with the null metrics and
        span sinks attached; every pinned field must stay byte-identical."""
        pinned = json.loads(
            (GOLDEN_DIR / "eventsim_baseline.json").read_text(encoding="utf-8")
        )
        params = SystemParameters(n=20, m=500, c=10, d=3, rate=2000.0)
        monitor = LoadMonitor(
            MonitorConfig.from_params(params, x=11, window=0.05)
        )
        sim = EventDrivenSimulator(
            params, AdversarialDistribution(500, 11), seed=7,
            context=RunContext(
                metrics=NULL_REGISTRY, spans=NULL_TRACER, monitor=monitor
            ),
        )
        result = sim.run(4000, trial=0)

        def finite(value):
            if isinstance(value, (int, np.integer)) or math.isfinite(value):
                return value
            return None

        fresh = json.loads(json.dumps({
            "duration": result.duration,
            "frontend_hits": result.frontend_hits,
            "backend_queries": result.backend_queries,
            "served": result.served.tolist(),
            "dropped": result.dropped.tolist(),
            "loads": result.arrival_loads.loads.tolist(),
            "normalized_max": result.normalized_max,
            "drop_rate": result.drop_rate,
            "latency_mean": finite(result.latency_mean),
            "latency_p99": finite(result.latency_p99),
            "cache_hit_rate": result.cache_hit_rate,
        }, sort_keys=True, allow_nan=False))
        assert fresh == pinned["result"]
