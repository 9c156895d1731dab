"""`repro perf run` end-to-end against a tiny bench dir."""

import json
import sys
import textwrap

import pytest

from repro.cli import main
from repro.perf import harness


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

        register("tinyperf", run=_run, render=repr, check=_check,
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


class TestPerfRun:
    def test_run_smoke_writes_only_the_record_and_table(self, bench_dir, capsys):
        assert main(["perf", "run", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "1 bench(es) [smoke]" in out
        # One record per bench, nothing else anywhere in the checkout.
        files = sorted(
            str(p.relative_to(bench_dir.parent))
            for p in bench_dir.parent.rglob("*")
            if p.is_file() and "__pycache__" not in p.parts
        )
        assert files == [
            "benchmarks/bench_tinyperf.py",
            "benchmarks/results/tinyperf_smoke.json",
            "benchmarks/results/tinyperf_smoke.txt",
        ]
        record = json.loads(
            (bench_dir / "results" / "tinyperf_smoke.json").read_text()
        )
        assert record["config"] == {"n": 3}
        assert record["value"] == 3
        assert record["smoke"] is True
        assert record["run"]["ok"] is True
        assert record["run"]["seed"] == 5
        assert record["run"]["events"] == 30

    def test_run_list(self, bench_dir, capsys):
        assert main(["perf", "run", "--list"]) == 0
        assert capsys.readouterr().out == "tinyperf\n"

    def test_run_unknown_bench_fails(self, bench_dir, capsys):
        assert main(["perf", "run", "--smoke", "--only", "nope"]) == 1
        assert "no bench named" in capsys.readouterr().err

    def test_run_fails_on_check_failure_and_still_records(
        self, bench_dir, capsys
    ):
        script = bench_dir / "bench_tinyperf.py"
        script.write_text(script.read_text().replace(
            'payload["value"] == 3', 'payload["value"] == 4'
        ))
        assert main(["perf", "run", "--smoke"]) == 1
        assert "1 check failure(s): tinyperf" in capsys.readouterr().out
        record = json.loads(
            (bench_dir / "results" / "tinyperf_smoke.json").read_text()
        )
        assert record["value"] == 3
        assert record["run"]["ok"] is False

    @pytest.mark.parametrize(
        "argv",
        [
            ["perf", "compare"],
            ["perf", "report"],
            ["perf", "run", "--no-history"],
            ["perf", "run", "--history", "h.jsonl"],
            ["perf", "run", "--trajectory-dir", "."],
        ],
    )
    def test_removed_commands_and_flags_are_usage_errors(self, bench_dir, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
