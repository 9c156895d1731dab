"""Self-tests of the end-to-end benchmark, at smoke sizes.

Run from the repo root with ``python -m pytest benchmarks/e2e -q``
(not part of the tier-1 ``tests/`` suite).  Needs ``reference.json`` to
pin the smoke digests of the default seed.
"""

import json
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest

import child
import run
from hostspeed import NOMINAL_S
from probes import Probes
from workloads import CHUNKS, DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS

ROOT = run.ROOT


def _bench(*argv, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path("benchmarks") / "e2e" / "run.py"), *argv],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _lines(stdout):
    """``{(workload, metric): (value, unit)}`` of the metric lines."""
    out = {}
    for line in stdout.splitlines():
        parts = line.split()
        if line.startswith(("#", "{")) or len(parts) != 4:
            continue
        out[(parts[0], parts[1])] = (parts[2], parts[3])
    return out


@pytest.fixture(scope="module")
def untraced():
    return _bench("--smoke", "--seconds", "0")


@pytest.fixture(scope="module")
def traced():
    return _bench("--smoke", "--seconds", "0", "--trace", "1")


def test_every_end_to_end_metric_prints_with_its_unit(untraced):
    assert untraced.returncode == 0, untraced.stdout + untraced.stderr
    lines = _lines(untraced.stdout)
    result = json.loads(untraced.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == sum(w.runs_per_pass(True) for w in WORKLOADS.values())
    for name, workload in WORKLOADS.items():
        for metric, unit in run.END_TO_END.items():
            shown = f"{workload.item}_per_s" if metric == "items_per_s" else metric
            value, printed_unit = lines[(name, shown)]
            assert printed_unit == unit and float(value) > 0
            assert result["metrics"][f"{name}:{metric}"]["unit"] == unit
        assert lines[(name, "error_rate")] == ("0", "fraction")
    assert "# total" in untraced.stdout


def test_every_layer_metric_prints_and_accounting_is_exact(traced):
    assert traced.returncode == 0, traced.stdout + traced.stderr
    lines = _lines(traced.stdout)
    result = json.loads(traced.stdout.splitlines()[-1])
    for name in WORKLOADS:
        for metric, unit in run.PER_LAYER.items():
            value, printed_unit = lines[(name, metric)]
            assert printed_unit == unit
            assert value == "absent" or float(value) == float(value)
            assert result["metrics"][f"{name}:{metric}"]["unit"] == unit
    assert traced.stdout.count("(off 0.00%)") == len(WORKLOADS)
    assert lines[("event-flood", "kernel.fast_frac")][0] == "1"
    assert lines[("event-lru-chaos", "kernel.fast_frac")][0] == "0"


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert spec["paths"] == ["benchmarks/e2e"]


def test_timings_are_scaled_by_the_reference_loop():
    def result(slowdown):
        chunk = [1.0, 2.0, 1.0, 1.0, 1.0]
        return {
            "rss_peak_mb": 50.0,
            "passes": [{
                "wall_s": 6.0 * slowdown,
                "chunk_items": [100] * CHUNKS,
                "chunk_wall_s": [t * slowdown * extra for t in chunk],
                "chunk_reference_s": [NOMINAL_S * slowdown] * CHUNKS,
            } for extra in (1.0, 1.5, 1.0)],
        }

    quiet = run.end_to_end(result(1.0), ([0.4, 0.5], [NOMINAL_S] * 6))
    slow = run.end_to_end(result(2.0), ([0.8, 1.0], [2 * NOMINAL_S] * 6))
    assert quiet["items_per_s"] == pytest.approx(500 / 6.0)
    assert quiet["setup_s"] == pytest.approx(0.45)
    for metric in ("setup_s", "items_per_s"):
        assert slow[metric] == pytest.approx(quiet[metric])
    assert slow["host_slowdown"] == pytest.approx(2.0)
    assert slow["wall_s"] == pytest.approx(2 * quiet["wall_s"])


def test_reference_pins_both_seeds_at_both_sizes():
    reference = json.loads(run.REFERENCE_PATH.read_text(encoding="utf-8"))
    for name, workload in WORKLOADS.items():
        for size, smoke in (("full", False), ("smoke", True)):
            pinned = reference["digests"][name][size]
            for seed in (DEFAULT_SEED, HELD_OUT_SEED):
                assert len(pinned[str(seed)]) == workload.runs_per_pass(smoke)


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_accounting_is_exact_under_an_injected_clock():
    clock = _Clock()
    probes = Probes(clock=clock)

    def inner():
        clock.now += 3

    inner = probes.wrap("inner", inner)

    def outer():
        clock.now += 1
        inner()
        clock.now += 2
        inner()

    outer = probes.wrap("outer", outer)
    clock.now += 5  # outside every probe
    outer()
    clock.now += 4
    wall = clock.now
    own = probes.self_seconds()
    assert own == {"outer": 3.0, "inner": 6.0}
    assert probes.unattributed(wall) == 9.0
    assert sum(own.values()) + probes.unattributed(wall) == wall
    assert probes.aggregates[("inner", "outer")] == [2, 6.0, 6.0]
    assert probes.aggregates[("outer", "")] == [1, 9.0, 3.0]
    parents = {span[0]: span[1] for span in probes.spans}
    outer_id = next(span[0] for span in probes.spans if span[2] == "outer")
    assert [parents[s[0]] for s in probes.spans if s[2] == "inner"] == [outer_id] * 2


def test_probes_report_absent_targets_and_restore_the_originals():
    import workloads

    original_digest = workloads.digest
    original_items = workloads.Workload.__dict__["items"]
    table = (
        ("gate", "workloads:digest", "calls", lambda args, result: 1),
        ("gate", "workloads:Workload.items", None, None),
        ("gone", "workloads:no_such_function", None, None),
        ("gone", "no_such_module:anything", None, None),
    )
    probes = Probes()
    with probes.installed(table):
        assert workloads.digest is not original_digest
        workloads.digest({"a": 1})
        WORKLOADS["event-flood"].items({"trials": 1, "queries": 3})
    assert workloads.digest is original_digest
    assert workloads.Workload.__dict__["items"] is original_items
    assert probes.status == {
        "workloads:digest": "installed",
        "workloads:Workload.items": "installed",
        "workloads:no_such_function": "absent",
        "no_such_module:anything": "absent",
    }
    assert probes.counters == {"gate.calls": 1}
    assert probes.aggregates[("gate", "")][0] == 2


def test_a_corrupted_digest_fails_the_run(tmp_path, monkeypatch, capsys):
    reference = json.loads(run.REFERENCE_PATH.read_text(encoding="utf-8"))
    pinned = reference["digests"]["event-flood"]["smoke"][str(DEFAULT_SEED)]
    pinned[2] = "0" * 64
    corrupted = tmp_path / "reference.json"
    corrupted.write_text(json.dumps(reference), encoding="utf-8")
    monkeypatch.setattr(run, "REFERENCE_PATH", corrupted)
    code = run.main(["--workload", "event-flood", "--smoke", "--seconds", "0"])
    out = capsys.readouterr().out
    assert code != 0
    assert "digest mismatch" in out
    assert "event-flood error_rate 0.2 fraction" in out
    assert json.loads(out.splitlines()[-1])["correct"] is False


def _args(seed):
    return SimpleNamespace(seed=seed, smoke=True, seconds=0.0, trace=0)


def test_seed_reaches_the_specs():
    workload = WORKLOADS["event-flood"]
    result = run.run_child(workload, _args(5), run.child_env())
    runs = result["passes"][0]["runs"]
    assert [r["seed"] for r in runs] == list(range(5, 5 + CHUNKS))
    assert all(r["error"] is None for r in runs)
    reference = json.loads(run.REFERENCE_PATH.read_text(encoding="utf-8"))
    default = reference["digests"]["event-flood"]["smoke"][str(DEFAULT_SEED)]
    assert [r["digest"] for r in runs] != default


def test_a_timed_section_under_tracemalloc_is_refused():
    tracemalloc.start()
    try:
        with pytest.raises(child.MeasurementError):
            child.timed_pass(WORKLOADS["event-flood"], [])
    finally:
        tracemalloc.stop()
    env = dict(run.child_env(), PYTHONTRACEMALLOC="1")
    assert run.run_child(WORKLOADS["event-flood"], _args(DEFAULT_SEED), env) is None


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "event-flood", "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
