"""End-to-end observability contracts across the simulation stack.

Three guarantees, each checked against the real engines:

1. **Zero interference** — running with a registry/tracer attached
   yields byte-identical simulation results to running without.
2. **Worker invariance** — the merged metrics of a parallel campaign
   (``workers=2``) equal the serial campaign's exactly.
3. **Export surface** — a figure-style run plus an event-driven
   campaign produce the JSON/Prometheus artifacts: one series per
   sweep-point campaign, per-policy cache counters, and phase spans
   with percentiles.
"""

import json

import pytest

from repro.cache.lru import LRUCache
from repro.chaos.config import ChaosConfig
from repro.cli import main as cli_main
from repro.core.notation import SystemParameters
from repro.experiments.fig3 import run_fig3
from repro.experiments.fig4 import DEFAULT_N_VALUES, run_fig4
from repro.experiments.fig5 import run_fig5
from repro.experiments.params import PaperParams
from repro.obs import (
    MetricsRegistry,
    RunContext,
    Tracer,
    export_json,
    to_prometheus,
)
from repro.obs.trace import FlightRecorder, TraceConfig
from repro.sim.analytic import MonteCarloSimulator, simulate_distribution
from repro.sim.batch import run_event_campaign
from repro.sim.eventsim import EventDrivenSimulator
from repro.workload.adversarial import AdversarialDistribution
from repro.workload.distributions import UniformDistribution


def _params(**overrides):
    defaults = dict(n=10, m=400, c=20, d=3, rate=2000.0)
    defaults.update(overrides)
    return SystemParameters(**defaults)


def _lru_factory():
    """Module-level so ``workers > 1`` can pickle it."""
    return LRUCache(20)


def _mc_report(x=50, seed=11, workers=1, metrics=None, tracer=None):
    sim = MonteCarloSimulator(
        _params(), trials=6, seed=seed,
        context=RunContext(metrics=metrics, spans=tracer, workers=workers),
    )
    return sim.distribution_attack(AdversarialDistribution(400, x))


class TestZeroInterference:
    def test_monte_carlo_report_is_identical(self):
        plain = _mc_report()
        instrumented = _mc_report(metrics=MetricsRegistry(), tracer=Tracer())
        assert (
            plain.normalized_max_per_trial == instrumented.normalized_max_per_trial
        ).all()
        assert plain.metadata == instrumented.metadata

    def test_eventsim_result_is_identical(self):
        def run(metrics=None, tracer=None):
            sim = EventDrivenSimulator(
                _params(), UniformDistribution(400), cache=LRUCache(20),
                seed=3, context=RunContext(metrics=metrics, spans=tracer),
            )
            return sim.run(3000)

        plain = run()
        instrumented = run(metrics=MetricsRegistry(), tracer=Tracer())
        assert plain.normalized_max == instrumented.normalized_max
        assert (plain.served == instrumented.served).all()
        assert (plain.dropped == instrumented.dropped).all()
        assert plain.cache_hit_rate == instrumented.cache_hit_rate

    def test_event_campaign_report_is_identical(self):
        def run(metrics=None):
            return run_event_campaign(
                _params(), UniformDistribution(400), trials=3, n_queries=2000,
                seed=7, context=RunContext(metrics=metrics),
            )

        plain = run()
        instrumented = run(metrics=MetricsRegistry())
        assert (
            plain.load_report.normalized_max_per_trial
            == instrumented.load_report.normalized_max_per_trial
        ).all()


class TestEventSpans:
    def test_kernel_resolve_splits_into_cache_and_route(self):
        tracer = Tracer()
        EventDrivenSimulator(
            _params(), UniformDistribution(400), cache=LRUCache(20),
            seed=3, context=RunContext(spans=tracer),
        ).run(2000)
        assert {
            "workload-gen",
            "event-loop",
            "event-loop/kernel-resolve",
            "event-loop/kernel-resolve/kernel-cache",
            "event-loop/kernel-resolve/kernel-route",
            "event-loop/kernel-queues",
            "event-loop/kernel-queues/kernel-drain",
            "report",
        } == set(tracer.aggregates())

    @pytest.mark.parametrize("traced", [False, True])
    def test_trace_sample_span_only_with_a_flight_recorder(self, traced):
        tracer = Tracer()
        recorder = FlightRecorder(TraceConfig(sample=0.1), seed=3) if traced else None
        EventDrivenSimulator(
            _params(), UniformDistribution(400), cache=LRUCache(20),
            seed=3, context=RunContext(spans=tracer, trace=recorder),
        ).run(2000)
        paths = set(tracer.aggregates())
        assert ("trace-sample" in paths) == traced
        assert ("event-loop/kernel-trace" in paths) == traced

    @staticmethod
    def _drain_spans(**kwargs):
        tracer = Tracer()
        result = EventDrivenSimulator(
            _params(), AdversarialDistribution(400, 100), seed=3,
            context=RunContext(spans=tracer), **kwargs
        ).run(4000)
        paths = set(tracer.aggregates())
        assert "event-loop/kernel-queues/kernel-drain" in paths
        return result, "event-loop/kernel-queues/kernel-drain-scalar" in paths

    def test_chaos_free_flood_takes_only_the_vector_drain(self):
        _, scalar = self._drain_spans()
        assert not scalar

    def test_crash_chaos_opens_the_scalar_drain_span(self):
        result, scalar = self._drain_spans(
            chaos=ChaosConfig(failure_rate=2.0, mttr=0.2)
        )
        assert result.failure_events > 0
        assert scalar


def _metrics_json(registry):
    """The registry's ``export_json`` metrics block as JSON text (NaN-safe)."""
    return json.dumps(export_json(registry)["metrics"], sort_keys=True)


class TestWorkerInvariance:
    def test_monte_carlo_metrics_identical_serial_vs_parallel(self):
        serial, parallel = MetricsRegistry(), MetricsRegistry()
        report_serial = _mc_report(workers=1, metrics=serial)
        report_parallel = _mc_report(workers=2, metrics=parallel)
        assert (
            report_serial.normalized_max_per_trial
            == report_parallel.normalized_max_per_trial
        ).all()
        assert _metrics_json(serial) == _metrics_json(parallel)

    def test_event_campaign_metrics_identical_serial_vs_parallel(self):
        snapshots = []
        for workers in (1, 2):
            registry = MetricsRegistry()
            run_event_campaign(
                _params(), UniformDistribution(400), trials=4, n_queries=2000,
                seed=9, cache_factory=_lru_factory,
                context=RunContext(metrics=registry, workers=workers),
            )
            snapshots.append(_metrics_json(registry))
        assert snapshots[0] == snapshots[1]

    def test_event_campaign_cache_counters_survive_the_merge(self):
        registry = MetricsRegistry()
        run_event_campaign(
            _params(), UniformDistribution(400), trials=2, n_queries=1500,
            seed=5, cache_factory=_lru_factory,
            context=RunContext(metrics=registry, workers=2),
        )
        by_name = {
            (c.name, c.labels): c.value for c in registry.counters()
        }
        hits = by_name.get(("cache_hits_total", (("policy", "lru"),)), 0)
        misses = by_name[("cache_misses_total", (("policy", "lru"),))]
        requests = by_name[("requests_total", ())]
        assert hits + misses == requests == 2 * 1500


class TestCampaignBallCounter:
    """A trial places one ball per uncached attacked key."""

    @pytest.mark.parametrize("x, balls", [(300, 4 * 250), (50, 0), (30, 0)])
    def test_balls_total_counts_uncached_keys(self, x, balls):
        registry = MetricsRegistry()
        simulate_distribution(
            SystemParameters(n=100, m=5000, c=50, d=3, rate=1e5),
            AdversarialDistribution(5000, x),
            trials=4, seed=3, context=RunContext(metrics=registry),
        )
        by_name = {(c.name, c.labels): c.value for c in registry.counters()}
        campaign = (("campaign", f"distribution-adversarial-n100-c50-x{x}"),)
        assert by_name[("campaign_balls_total", campaign)] == balls
        assert by_name[("campaign_trials_total", campaign)] == 4


    def test_one_series_per_sweep_point(self):
        """Fig. 5's campaigns share one RNG label; each (c, x) point
        still gets its own series, counting only its own trials."""
        registry = MetricsRegistry()
        run_fig5(
            paper=PaperParams(n=50, m=2000), cache_values=[20, 40, 80],
            trials=3, seed=5, context=RunContext(metrics=registry),
        )
        trials = {
            dict(c.labels)["campaign"]: c.value
            for c in registry.counters()
            if c.name == "campaign_trials_total"
        }
        expected = {
            f"distribution-adversarial-n50-c{c}-x{x}"
            for c in (20, 40, 80) for x in (c + 1, 2000)
        }
        assert trials == dict.fromkeys(expected, 3)

    def test_one_series_per_system_size(self):
        """Fig. 4 sweeps ``n`` at one ``c`` and ``x``; each (pattern, n)
        point still gets its own series, counting only its own trials."""
        registry = MetricsRegistry()
        run_fig4(trials=2, seed=1, m=5000, context=RunContext(metrics=registry))
        trials = {
            dict(c.labels)["campaign"]: c.value
            for c in registry.counters()
            if c.name == "campaign_trials_total"
        }
        expected = {
            f"distribution-{pattern}-n{n}-c100{attack}"
            for pattern, attack in (("uniform", ""), ("zipf", ""), ("adversarial", "-x101"))
            for n in DEFAULT_N_VALUES
        }
        assert trials == dict.fromkeys(expected, 2)


class TestFigureExportSurface:
    """The ISSUE's fig3-style acceptance check, at test scale."""

    @pytest.fixture(scope="class")
    def document(self):
        metrics, tracer = MetricsRegistry(), Tracer()
        run_fig3(
            cache_size=20,
            paper=PaperParams(n=10, m=400, trials=4),
            x_values=[30, 400],
            seed=2,
            context=RunContext(metrics=metrics, spans=tracer),
        )
        # Fold an event-driven campaign into the same registry: the
        # Monte-Carlo engine has no real cache, so hit/miss counters
        # come from this path.
        run_event_campaign(
            _params(), UniformDistribution(400), trials=2, n_queries=1500,
            seed=5, cache_factory=_lru_factory,
            context=RunContext(metrics=metrics, spans=tracer),
        )
        return export_json(metrics, tracer=tracer), to_prometheus(metrics, tracer)

    def test_cache_counters_present_per_policy(self, document):
        json_doc, prom = document
        names = {
            (c["name"], c["labels"].get("policy"))
            for c in json_doc["metrics"]["counters"]
        }
        assert ("cache_hits_total", "lru") in names
        assert ("cache_misses_total", "lru") in names
        assert 'repro_cache_hits_total{policy="lru"}' in prom

    def test_phase_spans_with_percentiles(self, document):
        json_doc, prom = document
        aggregates = json_doc["trace"]["aggregates"]
        assert any(path.startswith("fig3") for path in aggregates)
        assert any(path.endswith("trials") for path in aggregates)
        for stats in aggregates.values():
            assert {"count", "p50_seconds", "p95_seconds", "p99_seconds"} <= set(stats)
        assert "# TYPE repro_span_duration_seconds summary" in prom

    def test_histogram_percentiles_inline(self, document):
        json_doc, _ = document
        names = {h["name"] for h in json_doc["metrics"]["histograms"]}
        assert "trial_normalized_max" in names
        assert "backend_latency_seconds" in names

    def test_document_is_json_round_trippable(self, document):
        json_doc, _ = document
        assert json.loads(json.dumps(json_doc, sort_keys=True)) == json_doc


class TestCliExport:
    def test_metrics_out_writes_json(self, tmp_path, capsys):
        out = tmp_path / "metrics.json"
        code = cli_main(
            ["fig4", "--trials", "2", "--seed", "1", "--metrics-out", str(out)]
        )
        assert code == 0
        document = json.loads(out.read_text())
        assert document["version"] == 1
        counter_names = {c["name"] for c in document["metrics"]["counters"]}
        assert "campaign_trials_total" in counter_names
        assert document["trace"]["aggregates"]  # spans recorded
        assert str(out) in capsys.readouterr().out

    def test_metrics_prom_writes_exposition_text(self, tmp_path):
        out = tmp_path / "metrics.prom"
        code = cli_main(
            ["fig4", "--trials", "2", "--seed", "1", "--metrics-prom", str(out)]
        )
        assert code == 0
        text = out.read_text()
        assert "# TYPE repro_campaign_trials_total counter" in text
        assert "repro_span_duration_seconds_count" in text

    def test_no_flags_means_no_sinks(self, tmp_path, capsys):
        code = cli_main(["fig4", "--trials", "2", "--seed", "1"])
        assert code == 0
        assert "metrics written" not in capsys.readouterr().out


class TestNullSinkEquivalence:
    def test_null_registry_collects_nothing_through_the_stack(self):
        from repro.obs import NULL_REGISTRY

        report = _mc_report(metrics=NULL_REGISTRY)
        assert report.trials == 6
        assert export_json(NULL_REGISTRY)["metrics"] == {
            "counters": [], "gauges": [], "histograms": []
        }


class TestSubstrateInstrumentation:
    """The lower layers expose the same optional-registry surface."""

    def test_event_scheduler_counters(self):
        from event_oracle import EventScheduler

        registry = MetricsRegistry()
        scheduler = EventScheduler(metrics=registry)
        fired = []
        scheduler.schedule(1.0, lambda sched, now: fired.append(now))
        scheduler.schedule(2.0, lambda sched, now: fired.append(now))
        scheduler.run()
        values = {c.name: c.value for c in registry.counters()}
        assert values["events_fired_total"] == 2 == len(fired)
        assert {g.name: g.value for g in registry.gauges()}["events_pending"] == 0
