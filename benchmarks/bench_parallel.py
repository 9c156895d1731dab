"""Serial-vs-parallel campaign speedup.

The same Monte-Carlo x-key attack campaign run at several worker
counts, written to ``benchmarks/results/parallel.json``.  Per worker
count: wall-seconds, trials/s, speedup over the serial run and — the
part that actually matters — whether the per-trial results are
bit-identical to the serial run (they must be; the parallel substrate
derives the exact same ``(seed, label, trial)`` RNG streams).

``REPRO_BENCH_SMOKE=1`` shrinks it to a seconds-scale run (written to
``parallel_smoke.json`` so the full-scale artifact survives test runs).
Speedup assertions are gated on the host actually having the cores to
parallelise over — a single-core container can still verify
determinism, just not multi-process scaling.
"""

import os
from dataclasses import replace

from repro.core.notation import SystemParameters
from repro.perf.harness import active_context, register, smoke_mode, timed
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
SMOKE_CAMPAIGN = {
    "params": dict(n=200, m=10_000, c=100, d=3, rate=1e5),
    "x": 10_000,
    "trials": 8,
    "workers": (1, 2),
}


def run_campaign_bench() -> dict:
    spec = SMOKE_CAMPAIGN if smoke_mode() else FULL_CAMPAIGN
    params = SystemParameters(**spec["params"])
    trials, x = spec["trials"], spec["x"]
    context = active_context()
    rows = []
    serial_seconds = None
    serial_series = None
    for workers in spec["workers"]:
        report, seconds = timed(
            simulate_distribution,
            params, AdversarialDistribution(params.m, x), trials=trials,
            seed=SEED,
            context=replace(context, workers=workers),
        )
        if serial_seconds is None:
            serial_seconds, serial_series = seconds, report.normalized_max_per_trial
        rows.append(
            {
                "workers": workers,
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
    return {
        "smoke": smoke_mode(),
        "cpu_count": os.cpu_count(),
        "campaign": run_campaign_bench(),
    }


def _render(payload: dict) -> str:
    campaign = payload["campaign"]
    lines = [
        "== parallel: campaign fan-out speedup",
        f"host cpus: {payload['cpu_count']}, smoke: {payload['smoke']}",
        "",
        f"campaign ({campaign['config']['trials']} trials, "
        f"x={campaign['config']['x']}, n={campaign['config']['n']}):",
        "workers  wall_s  trials/s  speedup  identical",
    ]
    for row in campaign["results"]:
        lines.append(
            f"{row['workers']:>7}  {row['wall_seconds']:>6.2f}  "
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


def _workload(payload: dict):
    campaign = payload["campaign"]["config"]
    # One ball per uncached key per trial, at every worker count.
    balls = (
        max(campaign["x"] - campaign["c"], 0)
        * campaign["trials"]
        * len(payload["campaign"]["results"])
    )
    return {"balls": balls}


SPEC = register(
    "parallel", run=_run, render=_render, check=_check, workload=_workload,
    seed=SEED,
)
