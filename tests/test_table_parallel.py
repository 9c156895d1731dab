"""Serial-vs-parallel campaign speedup.

The same Monte-Carlo x-key attack campaign run at several worker
counts.  Per worker count: wall-seconds, trials/s, speedup over the
serial run and — the part that actually matters — whether the
per-trial results are bit-identical to the serial run (they must be;
the parallel substrate derives the exact same ``(seed, label, trial)``
RNG streams).

Each worker count first runs the campaign once untimed, reported as
``cold_seconds``: that run pays the one-off costs of a cold process
(imports, page cache, first-touch allocation), which a short campaign
cannot amortise.  The timed run that follows is the one the speedup and
the bit-identity check read.

Speedup assertions are gated on the host actually having the cores to
parallelise over — a single-core host can still verify determinism,
just not multi-process scaling.
"""

import os
import time

import pytest

from repro.core.notation import SystemParameters
from repro.obs import RunContext
from repro.sim.analytic import simulate_distribution
from repro.workload.adversarial import AdversarialDistribution

SEED = 20130708

#: Full-scale campaign: the acceptance configuration — 64 trials of the
#: widest paper attack (x = m, ~1e5 balls/trial) at 1/2/4 workers.
FULL_CAMPAIGN = {
    "params": dict(n=1000, m=100_000, c=200, d=3, rate=1e5),
    "x": 100_000,
    "trials": 64,
    "workers": (1, 2, 4),
}


def _timed_campaign(params, x, trials, workers):
    """One campaign's report and its wall seconds."""
    start = time.perf_counter()
    report = simulate_distribution(
        params, AdversarialDistribution(params.m, x), trials=trials,
        seed=SEED, context=RunContext(workers=workers),
    )
    return report, time.perf_counter() - start


def run_campaign_bench() -> dict:
    spec = FULL_CAMPAIGN
    params = SystemParameters(**spec["params"])
    trials, x = spec["trials"], spec["x"]
    rows = []
    serial_seconds = None
    serial_series = None
    for workers in spec["workers"]:
        _, cold_seconds = _timed_campaign(params, x, trials, workers)
        report, seconds = _timed_campaign(params, x, trials, workers)
        if serial_seconds is None:
            serial_seconds, serial_series = seconds, report.normalized_max_per_trial
        rows.append(
            {
                "workers": workers,
                "cold_seconds": cold_seconds,
                "wall_seconds": seconds,
                "trials_per_second": trials / seconds,
                "speedup": serial_seconds / seconds,
                "identical_to_serial": bool(
                    (report.normalized_max_per_trial == serial_series).all()
                ),
            }
        )
    return {
        "config": {**spec["params"], "x": x, "trials": trials, "seed": SEED},
        "results": rows,
    }


def _run() -> dict:
    # ``smoke`` stays in the payload: the check below is the one the
    # full-scale gate has always run.
    return {
        "smoke": False,
        "cpu_count": os.cpu_count(),
        "campaign": run_campaign_bench(),
    }


def _render(payload: dict) -> str:
    campaign = payload["campaign"]
    lines = [
        "== parallel: campaign fan-out speedup",
        f"host cpus: {payload['cpu_count']}",
        "",
        f"campaign ({campaign['config']['trials']} trials, "
        f"x={campaign['config']['x']}, n={campaign['config']['n']}):",
        "workers  cold_s  wall_s  trials/s  speedup  identical",
    ]
    for row in campaign["results"]:
        lines.append(
            f"{row['workers']:>7}  {row['cold_seconds']:>6.2f}  {row['wall_seconds']:>6.2f}  "
            f"{row['trials_per_second']:>8.2f}  {row['speedup']:>7.2f}  "
            f"{str(row['identical_to_serial']):>9}"
        )
    return "\n".join(lines)


def _check(payload: dict) -> None:
    # Determinism is non-negotiable on any host.
    assert all(r["identical_to_serial"] for r in payload["campaign"]["results"])
    if not payload["smoke"]:
        # Scaling claims need the full-scale workload and actual cores
        # to be meaningful.
        cpus = payload["cpu_count"] or 1
        for row in payload["campaign"]["results"]:
            if row["workers"] > 1 and cpus >= row["workers"]:
                assert row["speedup"] >= row["workers"] / 2.0


@pytest.mark.slow
def test_parallel():
    payload = _run()
    print(_render(payload))
    _check(payload)
