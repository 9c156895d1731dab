"""`repro perf run|compare|report` end-to-end against a tiny bench dir."""

import json
import sys
import textwrap

import pytest

from repro.cli import main
from repro.perf import harness
from repro.perf.history import append_manifests
from repro.perf.schema import RunManifest


@pytest.fixture
def bench_dir(tmp_path, monkeypatch):
    """A disposable benchmarks/ directory with one fast bench script."""
    directory = tmp_path / "benchmarks"
    directory.mkdir()
    (directory / "bench_tinyperf.py").write_text(textwrap.dedent(
        """
        from repro.perf.harness import register

        def _run():
            return {"config": {"n": 3}, "value": 3}

        def _check(payload):
            assert payload["value"] == 3

        register("tinyperf", run=_run, check=_check,
                 workload=lambda p: {"events": 30}, seed=5)
        """
    ))
    monkeypatch.setenv(harness.BENCH_DIR_ENV, str(directory))
    saved = dict(harness._REGISTRY)
    harness._REGISTRY.clear()
    # Each test gets a fresh import of the script (fresh tmp dir), so the
    # module cache must not satisfy discover() with a stale module object.
    sys.modules.pop("bench_tinyperf", None)
    yield directory
    sys.modules.pop("bench_tinyperf", None)
    harness._REGISTRY.clear()
    harness._REGISTRY.update(saved)


def make_manifest(engine, bench="tinyperf"):
    return RunManifest(
        bench=bench, smoke=True, ok=True, engine_seconds=engine,
        export_seconds=0.01, wall_seconds=engine + 0.01,
    )


class TestPerfRun:
    def test_run_smoke_writes_history_trajectories_artifacts(
        self, bench_dir, capsys
    ):
        assert main(["perf", "run", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "1 bench(es) [smoke]" in out
        history = bench_dir / "results" / "history.jsonl"
        assert history.exists()
        record = json.loads(history.read_text().splitlines()[0])
        assert record["bench"] == "tinyperf"
        assert record["smoke"] is True
        trajectory = json.loads(
            (bench_dir.parent / "BENCH_tinyperf.json").read_text()
        )
        assert trajectory["runs"] == 1
        assert (bench_dir / "results" / "tinyperf_smoke.json").exists()

    def test_run_list(self, bench_dir, capsys):
        assert main(["perf", "run", "--list"]) == 0
        assert "tinyperf" in capsys.readouterr().out

    def test_run_unknown_bench_fails(self, bench_dir, capsys):
        assert main(["perf", "run", "--smoke", "--only", "nope"]) == 1
        assert "no bench named" in capsys.readouterr().err

    def test_run_no_history(self, bench_dir):
        assert main(["perf", "run", "--smoke", "--no-history"]) == 0
        assert not (bench_dir / "results" / "history.jsonl").exists()

    def test_run_fails_on_check_failure_and_still_records(
        self, bench_dir, capsys
    ):
        script = bench_dir / "bench_tinyperf.py"
        script.write_text(script.read_text().replace(
            'payload["value"] == 3', 'payload["value"] == 4'
        ))
        assert main(["perf", "run", "--smoke"]) == 1
        assert "1 check failure(s): tinyperf" in capsys.readouterr().out
        history = bench_dir / "results" / "history.jsonl"
        record = json.loads(history.read_text().splitlines()[0])
        assert record["bench"] == "tinyperf"
        assert record["ok"] is False

    def test_run_then_compare_then_report_end_to_end(self, bench_dir, capsys):
        """The ISSUE 5 acceptance flow, on the disposable bench dir."""
        assert main(["perf", "run", "--smoke"]) == 0
        assert main(["perf", "compare"]) == 0
        out = capsys.readouterr().out
        assert "tinyperf [smoke]: new" in out
        report = bench_dir.parent / "perf_report.html"
        assert main(["perf", "report", "--out", str(report)]) == 0
        assert report.exists()
        assert "tinyperf" in report.read_text(encoding="utf-8")


class TestPerfCompare:
    def test_regression_warn_only_by_default(self, bench_dir, capsys):
        path = bench_dir / "results" / "history.jsonl"
        append_manifests(
            [make_manifest(1.0), make_manifest(1.0), make_manifest(9.0)], path
        )
        assert main(["perf", "compare"]) == 0
        assert "regression" in capsys.readouterr().out

    def test_fail_on_regression(self, bench_dir):
        path = bench_dir / "results" / "history.jsonl"
        append_manifests(
            [make_manifest(1.0), make_manifest(1.0), make_manifest(9.0)], path
        )
        assert main(["perf", "compare", "--fail-on-regression"]) == 1

    def test_thresholds_are_configurable(self, bench_dir):
        path = bench_dir / "results" / "history.jsonl"
        append_manifests(
            [make_manifest(1.0), make_manifest(1.0), make_manifest(9.0)], path
        )
        assert main([
            "perf", "compare", "--fail-on-regression",
            "--tolerance", "10.0", "--noise-floor", "100.0",
        ]) == 0

    def test_baseline_file(self, bench_dir, tmp_path):
        baseline = tmp_path / "baseline.jsonl"
        append_manifests([make_manifest(1.0)], baseline)
        current = bench_dir / "results" / "history.jsonl"
        append_manifests([make_manifest(9.0)], current)
        assert main([
            "perf", "compare", "--baseline", str(baseline),
            "--fail-on-regression",
        ]) == 1

    def test_schema_error_hard_fails_even_warn_only(self, bench_dir, capsys):
        path = bench_dir / "results" / "history.jsonl"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text('{"schema": 999}\n')
        assert main(["perf", "compare"]) == 2
        assert "schema error" in capsys.readouterr().err


class TestPerfReport:
    def test_report_schema_error_hard_fails(self, bench_dir, capsys):
        path = bench_dir / "results" / "history.jsonl"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("not json\n")
        assert main(
            ["perf", "report", "--out", str(bench_dir.parent / "r.html")]
        ) == 2
        assert "schema error" in capsys.readouterr().err

    def test_report_on_empty_history(self, bench_dir, capsys):
        out = bench_dir.parent / "empty.html"
        assert main(["perf", "report", "--out", str(out)]) == 0
        assert "history is empty" in out.read_text(encoding="utf-8")
