"""Harness contract: span separation, artifacts, registry, run_suite.

The load-bearing test here pins the ISSUE 5 fix with an injected clock:
``engine_seconds`` covers only ``run()``, the export span covers
rendering + JSON serialization, and manifest throughput divides by
engine time — export cost can never inflate reported throughput.
"""

import importlib.util
import json
import os
import tracemalloc

import pytest

from repro.exceptions import ReproError
from repro.obs import NULL_CONTEXT
from repro.perf import Profiler
from repro.perf.harness import (
    SMOKE_ENV,
    BenchSpec,
    active_context,
    active_profiler,
    get_spec,
    register,
    run_suite,
    smoke_mode,
)
from repro.perf import harness
from repro.perf.history import load_history


class TickClock:
    def __init__(self):
        self.now = -1.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


@pytest.fixture
def clean_registry():
    """Snapshot/restore the global bench registry around a test."""
    saved = dict(harness._REGISTRY)
    harness._REGISTRY.clear()
    try:
        yield harness._REGISTRY
    finally:
        harness._REGISTRY.clear()
        harness._REGISTRY.update(saved)


def make_spec(name="demo", **kwargs) -> BenchSpec:
    defaults = dict(
        run=lambda: {"config": {"n": 5}, "value": 1},
        workload=lambda payload: {"events": 100},
        seed=11,
    )
    defaults.update(kwargs)
    return BenchSpec(name=name, **defaults)


class TestSpanSeparation:
    def test_export_time_excluded_from_engine_seconds(self, tmp_path):
        """With a +1.0-per-call clock the span arithmetic is exact:
        outer open (0), engine open (1) / close (2), export open (3) /
        close (4), outer close (5)."""
        profiler = Profiler(clock=TickClock())
        result = make_spec().execute(
            smoke=True, profiler=profiler, directory=tmp_path, quiet=True
        )
        manifest = result.manifest
        assert manifest.engine_seconds == 1.0
        assert manifest.export_seconds == 1.0
        assert manifest.wall_seconds == 5.0
        # Throughput divides by engine time only — never wall time.
        assert manifest.events_per_second == 100.0

    def test_expensive_render_cannot_inflate_throughput(self, tmp_path):
        """A render that burns two extra clock ticks lands entirely in
        the export span; engine_seconds and throughput are unchanged."""
        clock = TickClock()

        def slow_render(payload):
            clock()
            clock()
            return "table"

        profiler = Profiler(clock=clock)
        result = make_spec(render=slow_render).execute(
            smoke=True, profiler=profiler, directory=tmp_path, quiet=True
        )
        assert result.manifest.engine_seconds == 1.0
        assert result.manifest.export_seconds == 3.0
        assert result.manifest.events_per_second == 100.0

    def test_span_paths_recorded(self, tmp_path):
        profiler = Profiler(clock=TickClock())
        result = make_spec(name="paths").execute(
            smoke=True, profiler=profiler, directory=tmp_path, quiet=True
        )
        assert {"paths", "paths/engine", "paths/export"} <= set(
            result.manifest.spans
        )


class TestExecute:
    def test_smoke_artifacts_use_smoke_stem(self, tmp_path):
        make_spec(name="stem").execute(
            smoke=True, directory=tmp_path, quiet=True
        )
        assert (tmp_path / "stem_smoke.json").exists()
        assert (tmp_path / "stem_smoke.txt").exists()
        assert not (tmp_path / "stem.json").exists()

    def test_full_artifacts_use_plain_stem(self, tmp_path):
        make_spec(name="stem").execute(
            smoke=False, directory=tmp_path, quiet=True
        )
        assert (tmp_path / "stem.json").exists()

    def test_payload_json_gets_smoke_flag(self, tmp_path):
        make_spec(name="flagged").execute(
            smoke=True, directory=tmp_path, quiet=True
        )
        payload = json.loads((tmp_path / "flagged_smoke.json").read_text())
        assert payload["smoke"] is True

    def test_smoke_env_pinned_during_run_and_restored(self, tmp_path):
        seen = {}

        def run():
            seen["env"] = os.environ.get(SMOKE_ENV)
            seen["mode"] = smoke_mode()
            return {"config": {}}

        previous = os.environ.get(SMOKE_ENV)
        make_spec(run=run, workload=None).execute(
            smoke=True, directory=tmp_path, quiet=True
        )
        assert seen == {"env": "1", "mode": True}
        assert os.environ.get(SMOKE_ENV) == previous

    def test_active_profiler_available_inside_run_only(self, tmp_path):
        seen = {}

        def run():
            seen["profiler"] = active_profiler()
            return {"config": {}}

        profiler = Profiler()
        make_spec(run=run, workload=None).execute(
            smoke=True, profiler=profiler, directory=tmp_path, quiet=True
        )
        assert seen["profiler"] is profiler
        assert active_profiler() is None

    def test_active_context_records_into_the_profiler(self, tmp_path):
        seen = {}

        def run():
            seen["context"] = active_context()
            return {"config": {}}

        profiler = Profiler()
        make_spec(run=run, workload=None).execute(
            smoke=True, profiler=profiler, directory=tmp_path, quiet=True
        )
        assert seen["context"].metrics is profiler.metrics
        assert seen["context"].spans is profiler.tracer
        assert not seen["context"].monitor.enabled
        assert active_context() is NULL_CONTEXT

    def test_check_failure_marks_not_ok_without_raising(self, tmp_path):
        def check(payload):
            assert payload["value"] == 2, "value drifted"

        result = make_spec(check=check).execute(
            smoke=True, directory=tmp_path, quiet=True
        )
        assert not result.ok
        assert not result.manifest.ok
        assert "value drifted" in result.error

    def test_manifest_provenance_fields(self, tmp_path):
        result = make_spec().execute(
            smoke=True, directory=tmp_path, quiet=True
        )
        manifest = result.manifest
        assert manifest.bench == "demo"
        assert manifest.seed == 11
        assert manifest.config == {"n": 5}
        assert manifest.events == 100
        assert manifest.smoke is True

    def test_workers_lifted_from_payload_config(self, tmp_path):
        spec = make_spec(run=lambda: {"config": {"workers": 8}})
        result = spec.execute(smoke=True, directory=tmp_path, quiet=True)
        assert result.manifest.workers == 8

    def test_bad_payload_type_rejected(self, tmp_path):
        spec = make_spec(run=lambda: [1, 2], workload=None)
        with pytest.raises(ReproError, match="payload"):
            spec.execute(smoke=True, directory=tmp_path, quiet=True)


class TestRegistry:
    def test_register_and_get(self, clean_registry):
        spec = register("alpha", run=lambda: {"config": {}})
        assert get_spec("alpha") is spec

    def test_reregistration_same_module_replaces(self, clean_registry):
        register("alpha", run=lambda: {"a": 1})
        replacement = register("alpha", run=lambda: {"a": 2})
        assert get_spec("alpha") is replacement

    def test_cross_module_clash_rejected(self, clean_registry):
        def first():
            return {}

        def second():
            return {}

        first.__module__ = "bench_one"
        second.__module__ = "bench_two"
        register("alpha", run=first)
        with pytest.raises(ReproError, match="already registered"):
            register("alpha", run=second)

    def test_missing_name_lists_known(self, clean_registry):
        register("alpha", run=lambda: {})
        with pytest.raises(ReproError, match="alpha"):
            get_spec("missing")


class TestRunSuite:
    def test_suite_appends_history_and_writes_trajectories(
        self, clean_registry, tmp_path
    ):
        register(
            "one", run=lambda: {"config": {}},
            workload=lambda p: {"events": 10}, seed=1,
        )
        register("two", run=lambda: {"config": {}}, seed=2)
        history_path = tmp_path / "history.jsonl"
        results = run_suite(
            smoke=True, directory=tmp_path, history_path=history_path,
            trajectory_dir=tmp_path, quiet=True,
        )
        assert [r.spec.name for r in results] == ["one", "two"]
        manifests = load_history(history_path)
        assert [m.bench for m in manifests] == ["one", "two"]
        trajectory = json.loads((tmp_path / "BENCH_one.json").read_text())
        assert trajectory["runs"] == 1
        assert trajectory["latest"]["ok"] is True

    def test_second_run_extends_trajectory(self, clean_registry, tmp_path):
        register("one", run=lambda: {"config": {}})
        history_path = tmp_path / "history.jsonl"
        for _ in range(2):
            run_suite(
                smoke=True, directory=tmp_path, history_path=history_path,
                trajectory_dir=tmp_path, quiet=True,
            )
        trajectory = json.loads((tmp_path / "BENCH_one.json").read_text())
        assert trajectory["runs"] == 2
        assert len(trajectory["trajectory"]) == 2

    def test_no_history_mode_leaves_store_untouched(
        self, clean_registry, tmp_path
    ):
        register("one", run=lambda: {"config": {}})
        history_path = tmp_path / "history.jsonl"
        run_suite(
            smoke=True, directory=tmp_path, history_path=history_path,
            trajectory_dir=tmp_path, update_history=False, quiet=True,
        )
        assert not history_path.exists()
        assert not (tmp_path / "BENCH_one.json").exists()

    def test_named_subset(self, clean_registry, tmp_path):
        register("one", run=lambda: {"config": {}})
        register("two", run=lambda: {"config": {}})
        results = run_suite(
            names=["two"], smoke=True, directory=tmp_path,
            history_path=tmp_path / "h.jsonl", trajectory_dir=tmp_path,
            quiet=True,
        )
        assert [r.spec.name for r in results] == ["two"]

    def test_check_failure_recorded_not_fatal(self, clean_registry, tmp_path):
        def check(payload):
            raise AssertionError("broken claim")

        register("flaky", run=lambda: {"config": {}}, check=check)
        results = run_suite(
            smoke=True, directory=tmp_path,
            history_path=tmp_path / "h.jsonl", trajectory_dir=tmp_path,
            quiet=True,
        )
        assert not results[0].ok
        manifests = load_history(tmp_path / "h.jsonl")
        assert manifests[0].ok is False
        assert "broken claim" in manifests[0].error


class TestUntracedTiming:
    """Timings are never taken under tracemalloc."""

    @staticmethod
    def _untraced_run():
        assert not tracemalloc.is_tracing(), "run() timed under tracemalloc"
        return {"config": {}}

    def test_run_executes_with_tracemalloc_off(self, tmp_path):
        result = make_spec(run=self._untraced_run, workload=None).execute(
            smoke=True, directory=tmp_path, quiet=True
        )
        assert result.ok
        assert result.manifest.tracemalloc_peak_bytes is None
        assert result.manifest.to_dict()["memory"]["tracemalloc_peak_bytes"] is None

    def test_callers_tracing_is_paused_and_restored(self, tmp_path):
        tracemalloc.start()
        try:
            make_spec(run=self._untraced_run, workload=None).execute(
                smoke=True, directory=tmp_path, quiet=True
            )
            assert tracemalloc.is_tracing()
        finally:
            tracemalloc.stop()


class TestBenchLayerSpans:
    def test_eventsim_smoke_manifest_carries_kernel_spans(
        self, clean_registry, tmp_path
    ):
        # A fresh module object, so the bench registers into the clean
        # registry whatever imported it before.
        path = harness.bench_dir() / "bench_eventsim.py"
        module_spec = importlib.util.spec_from_file_location(
            "bench_eventsim_layer_spans", path
        )
        module = importlib.util.module_from_spec(module_spec)
        module_spec.loader.exec_module(module)
        result = module.SPEC.execute(smoke=True, directory=tmp_path, quiet=True)
        assert result.ok
        spans = result.manifest.spans
        assert "eventsim/engine/event-loop/kernel-queues/kernel-drain" in spans
        assert "eventsim/engine/event-loop/kernel-resolve/kernel-route" in spans
