"""Smoke-run the perf benches with hard invariants inside the tier-1 budget.

``repro perf run --smoke`` shrinks each bench to a seconds-scale
configuration and redirects its record to ``*_smoke.json``, so these
tests never clobber committed full-scale artifacts.  The point here is
not performance numbers — it is that every bench runs end to end
through its one entry point, exits zero, and that its hard invariants
(determinism, engine agreement, observability non-interference) hold on
whatever machine executes the suite.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
RESULTS = REPO / "benchmarks" / "results"

BENCHES = ["bench_parallel", "bench_eventsim", "bench_obs"]


def _run_smoke(name: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return subprocess.run(
        [
            sys.executable, "-m", "repro", "perf", "run",
            "--smoke", "--only", name,
        ],
        cwd=str(REPO),
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )


@pytest.fixture(scope="module", params=BENCHES)
def smoke_payload(request):
    """Run one bench in smoke mode (once per module) and load its JSON."""
    script = request.param
    name = script[len("bench_"):]
    proc = _run_smoke(name)
    assert proc.returncode == 0, f"{script} failed:\n{proc.stdout}\n{proc.stderr}"
    payload = json.loads(
        (RESULTS / f"{name}_smoke.json").read_text(encoding="utf-8")
    )
    assert payload["smoke"] is True
    return script, payload


def test_bench_exits_zero_and_marks_smoke(smoke_payload):
    script, payload = smoke_payload
    assert payload["smoke"] is True


def test_bench_invariants_hold(smoke_payload):
    script, payload = smoke_payload
    if script == "bench_parallel":
        # Determinism must hold on any host, regardless of core count.
        assert all(
            row["identical_to_serial"] for row in payload["campaign"]["results"]
        )
        for row in payload["campaign"]["results"]:
            assert row["wall_seconds"] > 0
            assert row["trials_per_second"] > 0
    elif script == "bench_eventsim":
        assert payload["engines_agree"] is True
        assert payload["wall_seconds"] > 0
        assert len(payload["columns"]["x"]) == len(payload["columns"]["drop_rate"])
    elif script == "bench_obs":
        for section in ("monte_carlo", "eventsim", "monitor"):
            modes = payload[section]["modes"]
            expected = {"off", "null", "live" if section == "monitor" else "full"}
            assert set(modes) == expected
            # Instrumentation must never change a simulation result.
            assert all(row["identical_to_off"] for row in modes.values())
            assert all(row["wall_seconds"] > 0 for row in modes.values())
    else:  # pragma: no cover - parametrization is exhaustive
        raise AssertionError(script)
