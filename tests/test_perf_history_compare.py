"""History store and regression comparator on synthetic manifests."""

import json

import pytest

from repro.exceptions import ReproError
from repro.perf.compare import (
    DEFAULT_NOISE_FLOOR,
    DEFAULT_TOLERANCE,
    compare_history,
    render_verdicts,
)
from repro.perf.history import (
    append_manifests,
    group_by_bench,
    load_history,
    trajectory_record,
    write_trajectories,
)
from repro.perf.schema import PerfSchemaError, RunManifest


def make_manifest(bench="demo", engine=1.0, smoke=True, **overrides):
    base = dict(
        bench=bench,
        smoke=smoke,
        ok=True,
        engine_seconds=engine,
        export_seconds=0.1,
        wall_seconds=engine + 0.1,
        events=1000,
    )
    base.update(overrides)
    return RunManifest(**base)


class TestHistoryStore:
    def test_append_then_load_round_trips(self, tmp_path):
        path = tmp_path / "history.jsonl"
        written = [make_manifest("a"), make_manifest("b", engine=2.0)]
        append_manifests(written, path)
        append_manifests([make_manifest("a", engine=3.0)], path)
        loaded = load_history(path)
        assert [m.bench for m in loaded] == ["a", "b", "a"]
        assert loaded[:2] == written
        assert loaded[2].engine_seconds == 3.0

    def test_missing_file_is_empty_history(self, tmp_path):
        assert load_history(tmp_path / "absent.jsonl") == []

    def test_corrupt_json_line_hard_fails_with_line_number(self, tmp_path):
        path = tmp_path / "history.jsonl"
        append_manifests([make_manifest()], path)
        with path.open("a") as fh:
            fh.write("{not json\n")
        with pytest.raises(PerfSchemaError, match="history.jsonl:2"):
            load_history(path)

    def test_schema_violation_hard_fails_with_line_number(self, tmp_path):
        path = tmp_path / "history.jsonl"
        record = make_manifest().to_dict()
        del record["timings"]
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(PerfSchemaError, match="history.jsonl:1"):
            load_history(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "history.jsonl"
        append_manifests([make_manifest()], path)
        with path.open("a") as fh:
            fh.write("\n\n")
        assert len(load_history(path)) == 1

    def test_group_by_bench_preserves_order(self):
        manifests = [
            make_manifest("a", engine=1.0),
            make_manifest("b"),
            make_manifest("a", engine=2.0),
        ]
        groups = group_by_bench(manifests)
        assert [m.engine_seconds for m in groups["a"]] == [1.0, 2.0]

    def test_trajectory_record_carries_throughput(self):
        row = trajectory_record(make_manifest(engine=2.0, events=1000))
        assert row["events_per_second"] == 500.0
        assert row["engine_seconds"] == 2.0

    def test_write_trajectories(self, tmp_path):
        manifests = [
            make_manifest("a", engine=1.0),
            make_manifest("a", engine=2.0),
            make_manifest("b"),
        ]
        written = write_trajectories(manifests, tmp_path)
        assert sorted(p.name for p in written) == [
            "BENCH_a.json", "BENCH_b.json",
        ]
        payload = json.loads((tmp_path / "BENCH_a.json").read_text())
        assert payload["runs"] == 2
        assert payload["latest"]["engine_seconds"] == 2.0
        assert [r["engine_seconds"] for r in payload["trajectory"]] == [1.0, 2.0]


class TestComparator:
    def test_single_run_is_new(self):
        (verdict,) = compare_history([make_manifest()])
        assert verdict.status == "new"
        assert verdict.baseline is None

    def test_steady_series_within_noise(self):
        history = [make_manifest(engine=1.0) for _ in range(4)]
        (verdict,) = compare_history(history)
        assert verdict.status == "within-noise"
        assert verdict.ratio == 1.0

    def test_regression_needs_relative_and_absolute_breach(self):
        history = [make_manifest(engine=1.0) for _ in range(3)]
        history.append(make_manifest(engine=1.5))
        (verdict,) = compare_history(history)
        assert verdict.status == "regression"
        assert verdict.is_regression
        assert verdict.baseline == 1.0
        assert verdict.ratio == 1.5

    def test_relative_breach_below_noise_floor_is_noise(self):
        # 50% slower but only 5 ms absolute: micro-bench jitter.
        history = [make_manifest(engine=0.010) for _ in range(3)]
        history.append(make_manifest(engine=0.015))
        (verdict,) = compare_history(history)
        assert verdict.status == "within-noise"

    def test_absolute_breach_below_tolerance_is_noise(self):
        # 0.6 s slower but only 6% relative: long bench drift.
        history = [make_manifest(engine=10.0) for _ in range(3)]
        history.append(make_manifest(engine=10.6))
        (verdict,) = compare_history(history)
        assert verdict.status == "within-noise"

    def test_improvement(self):
        history = [make_manifest(engine=2.0) for _ in range(3)]
        history.append(make_manifest(engine=1.0))
        (verdict,) = compare_history(history)
        assert verdict.status == "improvement"

    def test_baseline_is_median_of_window(self):
        history = [
            make_manifest(engine=e) for e in (1.0, 100.0, 1.0, 1.0, 1.0, 1.0)
        ]
        history.append(make_manifest(engine=1.5))
        (verdict,) = compare_history(history, k=5)
        # Window is the last 5 preceding runs; the 100 s outlier falls
        # outside median influence.
        assert verdict.baseline == 1.0
        assert verdict.status == "regression"

    def test_smoke_and_full_series_never_mix(self):
        history = [
            make_manifest(engine=1.0, smoke=True),
            make_manifest(engine=50.0, smoke=False),
            make_manifest(engine=1.0, smoke=True),
            make_manifest(engine=50.0, smoke=False),
        ]
        verdicts = compare_history(history)
        assert len(verdicts) == 2
        assert all(v.status == "within-noise" for v in verdicts)

    def test_tracemalloc_timed_rows_form_their_own_series(self):
        # A row timed under tracemalloc (non-null peak) is several times
        # slower than an untraced one; it must never be its baseline.
        baseline = [
            make_manifest(engine=7.0, tracemalloc_peak_bytes=1 << 20)
            for _ in range(3)
        ]
        (verdict,) = compare_history(
            [make_manifest(engine=1.0)], baseline_manifests=baseline
        )
        assert verdict.status == "new"
        assert not verdict.traced

        history = baseline + [make_manifest(engine=1.0) for _ in range(2)]
        verdicts = {v.traced: v for v in compare_history(history)}
        assert verdicts[False].status == "within-noise"
        assert verdicts[False].baseline == 1.0
        assert verdicts[True].baseline == 7.0
        assert "tracemalloc" in verdicts[True].describe()
        assert "tracemalloc" not in verdicts[False].describe()

    def test_separate_baseline_file(self):
        baseline = [make_manifest(engine=1.0) for _ in range(3)]
        current = [make_manifest(engine=2.0)]
        (verdict,) = compare_history(current, baseline_manifests=baseline)
        assert verdict.status == "regression"
        assert verdict.baseline_runs == 3

    def test_baseline_file_without_matching_series_is_new(self):
        baseline = [make_manifest("other")]
        (verdict,) = compare_history([make_manifest()], baseline_manifests=baseline)
        assert verdict.status == "new"

    def test_custom_metric(self):
        history = [
            make_manifest(export_seconds=0.1),
            make_manifest(export_seconds=1.0),
        ]
        (verdict,) = compare_history(history, metric="export_seconds")
        assert verdict.status == "regression"
        assert verdict.metric == "export_seconds"

    def test_unknown_metric_rejected(self):
        with pytest.raises(ReproError, match="unknown comparison metric"):
            compare_history([make_manifest()], metric="vibes")

    def test_k_must_be_positive(self):
        with pytest.raises(ReproError, match="k must be"):
            compare_history([make_manifest()], k=0)

    def test_defaults_are_sane(self):
        assert 0 < DEFAULT_TOLERANCE < 1
        assert DEFAULT_NOISE_FLOOR > 0


class TestRenderVerdicts:
    def test_empty_history_message(self):
        assert "history is empty" in render_verdicts([])

    def test_regressions_listed_first_and_counted(self):
        history = [
            make_manifest("fast", engine=1.0),
            make_manifest("slow", engine=1.0),
            make_manifest("fast", engine=1.0),
            make_manifest("slow", engine=9.0),
        ]
        text = render_verdicts(compare_history(history))
        lines = text.splitlines()
        assert lines[0].startswith("slow")
        assert "regression" in lines[0]
        assert lines[-1] == "-- 2 series compared, 1 regression(s)"
