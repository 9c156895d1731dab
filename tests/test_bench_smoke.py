"""Smoke-run the bench scripts with hard invariants inside the tier-1 budget.

``REPRO_BENCH_SMOKE=1`` shrinks each script to a seconds-scale
configuration and redirects its record to ``*_smoke.json``, so these
tests never clobber committed full-scale artifacts.  The point here is
not performance numbers — it is that every script runs end to end,
exits zero, and that its hard invariants (observability
non-interference) hold on whatever machine executes the suite.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
BENCHMARKS = REPO / "benchmarks"

BENCHES = ["bench_obs"]


@pytest.fixture(scope="module", params=BENCHES)
def smoke_payload(request):
    """Run one bench script in smoke mode (once per module); load its JSON."""
    script = request.param
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"), REPRO_BENCH_SMOKE="1")
    proc = subprocess.run(
        [sys.executable, str(BENCHMARKS / f"{script}.py")],
        cwd=str(REPO),
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, f"{script} failed:\n{proc.stdout}\n{proc.stderr}"
    name = script[len("bench_"):]
    payload = json.loads(
        (BENCHMARKS / "results" / f"{name}_smoke.json").read_text(encoding="utf-8")
    )
    return payload


def test_bench_exits_zero_and_marks_smoke(smoke_payload):
    payload = smoke_payload
    assert payload["smoke"] is True
    assert {"git_sha", "host"} <= set(payload)


def test_bench_invariants_hold(smoke_payload):
    payload = smoke_payload
    for section in ("monte_carlo", "eventsim", "monitor"):
        modes = payload[section]["modes"]
        expected = {"off", "null", "live" if section == "monitor" else "full"}
        assert set(modes) == expected
        # Instrumentation must never change a simulation result.
        assert all(row["identical_to_off"] for row in modes.values())
        assert all(row["wall_seconds"] > 0 for row in modes.values())
