#!/usr/bin/env python3
"""Regenerate the committed golden fixtures under tests/golden/.

Run from the repository root::

    PYTHONPATH=src python tests/golden/make_golden.py

The fixtures pin *reproduced paper numbers* so refactors cannot shift
them silently (tests/test_golden_regression.py compares at 1e-9):

- ``analytic_bounds.json`` — the Eq. (10) bound curves behind Figures
  3/4/5 (paper-k and calibrated-k variants over the default sweep
  grids) plus the analytic critical cache sizes;
- ``failures_expected.json`` — ``expected_unavailable_fraction`` over
  an (n, d, failed) grid;
- ``fig3_small_sim.json`` — a seeded small-system Figure-3 curve from
  the figure driver (exercises the per-point seeds and the full
  sample -> partition -> allocate pipeline);
- ``eventsim_baseline.json`` — one seeded event-driven run with the
  online monitor attached and chaos *off*: the byte-level contract that
  fault injection must not perturb when disabled;
- ``instruments.json`` — the monitor event logs (windows, alerts, node
  events, run summaries) of the chaos and cache-tree scenario fixtures
  and of the traced replay spec, plus the replay's flight-recorder
  suspects, per-trial summaries and a SHA-256 of its trace JSONL: the
  byte pin on the monitor's chaos and layer paths and on the recorder;
- ``scenarios/expected.json`` — pinned engine stats for every scenario
  spec in ``scenarios/*.yaml`` and the deterministic manifest view for
  every campaign spec there (tests/test_scenario_campaign.py compares
  *exactly*, serial and at workers=4).

Only regenerate when a change is *intended* to move reproduced numbers,
and say so in the commit message.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

GOLDEN_DIR = Path(__file__).parent


def _dump(name: str, payload: dict) -> None:
    path = GOLDEN_DIR / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {path}")


def analytic_bounds() -> dict:
    from repro.core.bounds import (
        DEFAULT_CALIBRATED_K_PRIME,
        normalized_max_load_bound,
    )
    from repro.core.cases import critical_cache_size
    from repro.experiments.fig3 import default_x_grid
    from repro.experiments.fig4 import DEFAULT_N_VALUES
    from repro.experiments.fig5 import default_cache_grid
    from repro.experiments.params import PAPER

    payload: dict = {"k_paper": PAPER.k, "k_prime_calibrated": DEFAULT_CALIBRATED_K_PRIME}
    for name, c in (("fig3a", PAPER.c_small), ("fig3b", PAPER.c_large)):
        params = PAPER.system(c=c)
        xs = [int(x) for x in default_x_grid(c, PAPER.m)]
        payload[name] = {
            "x": xs,
            "bound_paper": [normalized_max_load_bound(params, x, k=PAPER.k) for x in xs],
            "bound_calib": [
                normalized_max_load_bound(params, x, k_prime=DEFAULT_CALIBRATED_K_PRIME)
                for x in xs
            ],
        }
    # Figure 4 rides on the two candidate attacks at every swept n.
    fig4 = {"n": list(DEFAULT_N_VALUES), "bound_x_c_plus_1": [], "bound_x_m": []}
    for n in DEFAULT_N_VALUES:
        params = PAPER.system(c=PAPER.c_fig4, n=int(n))
        fig4["bound_x_c_plus_1"].append(
            normalized_max_load_bound(params, params.c + 1, k=PAPER.k)
        )
        fig4["bound_x_m"].append(normalized_max_load_bound(params, params.m, k=PAPER.k))
    payload["fig4"] = fig4
    cache_grid = [int(c) for c in default_cache_grid(PAPER)]
    payload["fig5"] = {
        "c": cache_grid,
        "critical_paper": critical_cache_size(PAPER.n, PAPER.d, k=PAPER.k),
        "critical_calibrated": critical_cache_size(
            PAPER.n, PAPER.d, k_prime=DEFAULT_CALIBRATED_K_PRIME
        ),
        "bound_x_c_plus_1": [
            normalized_max_load_bound(PAPER.system(c=c), min(c + 1, PAPER.m), k=PAPER.k)
            for c in cache_grid
        ],
    }
    return payload


def failures_expected() -> dict:
    from repro.cluster.failures import expected_unavailable_fraction

    cases = []
    for n in (5, 20, 100, 1000):
        for d in (1, 2, 3, 5):
            if d > n:
                continue
            for failed in sorted({0, 1, d - 1, d, n // 4, n // 2, n}):
                if not 0 <= failed <= n:
                    continue
                cases.append(
                    {
                        "n": n,
                        "d": d,
                        "failed": int(failed),
                        "expected": expected_unavailable_fraction(n, d, int(failed)),
                    }
                )
    return {"cases": cases}


def fig3_small_sim() -> dict:
    from repro.experiments.fig3 import run_fig3
    from repro.experiments.params import PaperParams

    xs = [26, 50, 100, 400, 2000]
    result = run_fig3(
        25, paper=PaperParams(n=50, m=2000, d=3, rate=10_000.0, trials=5),
        x_values=xs, seed=20130708,
    )
    return {
        "params": {"n": 50, "m": 2000, "c": 25, "d": 3, "rate": 10_000.0},
        "trials": 5,
        "seed": 20130708,
        "x": xs,
        "sim_max": result.column("sim_max"),
        "sim_mean": result.column("sim_mean"),
    }


def eventsim_baseline() -> dict:
    from repro.core.notation import SystemParameters
    from repro.obs import LoadMonitor, MonitorConfig, RunContext
    from repro.sim.eventsim import EventDrivenSimulator
    from repro.workload.adversarial import AdversarialDistribution

    params = SystemParameters(n=20, m=500, c=10, d=3, rate=2000.0)
    monitor = LoadMonitor(MonitorConfig.from_params(params, x=11, window=0.05))
    sim = EventDrivenSimulator(
        params, AdversarialDistribution(500, 11), seed=7,
        context=RunContext(monitor=monitor),
    )
    result = sim.run(4000, trial=0)

    def finite(value: float) -> object:
        return value if isinstance(value, (int, np.integer)) or math.isfinite(value) else None

    return {
        "seed": 7,
        "n_queries": 4000,
        "result": {
            "duration": result.duration,
            "frontend_hits": result.frontend_hits,
            "backend_queries": result.backend_queries,
            "served": result.served.tolist(),
            "dropped": result.dropped.tolist(),
            "loads": result.arrival_loads.loads.tolist(),
            "normalized_max": result.normalized_max,
            "drop_rate": result.drop_rate,
            "latency_mean": finite(result.latency_mean),
            "latency_p99": finite(result.latency_p99),
            "cache_hit_rate": result.cache_hit_rate,
        },
        # Manifest excluded: it echoes MonitorConfig defaults, which may
        # legitimately grow fields; windows/alerts/summaries are the
        # behavioural contract.
        "windows": monitor.windows,
        "alerts": monitor.alerts,
        "summaries": monitor.summaries,
    }


#: Scenario specs whose instruments :func:`instruments` pins.
INSTRUMENT_SPECS = (
    GOLDEN_DIR / "scenarios" / "chaos-on.yaml",
    GOLDEN_DIR / "scenarios" / "tree-paper-default.yaml",
    GOLDEN_DIR.parents[1] / "examples" / "specs" / "replay.yaml",
)


def instruments() -> dict:
    """Monitor event logs and flight-recorder output of ``INSTRUMENT_SPECS``.

    Each spec runs as ``repro scenario run SPEC --events-out`` does: a
    monitor judged at the spec distribution's ``x``, window 0.1 s.  The
    trace records themselves are pinned by the SHA-256 of the JSONL
    :meth:`~repro.obs.trace.FlightRecorder.write` exports (thousands of
    records), the suspects and per-trial summaries verbatim.
    """
    import hashlib
    import os
    import tempfile

    from repro.obs import LoadMonitor, MonitorConfig, RunContext
    from repro.scenario import load_spec, run_scenario
    from repro.scenario.build import BuildContext, build_distribution

    os.environ.pop("REPRO_BENCH_SMOKE", None)
    payload: dict = {}
    for path in INSTRUMENT_SPECS:
        spec = load_spec(path)
        distribution = build_distribution(
            spec.workload, spec.adversary,
            BuildContext(params=spec.system, seed=spec.seed),
        )
        monitor = LoadMonitor(MonitorConfig.from_params(
            spec.system, x=getattr(distribution, "x", None), window=0.1
        ))
        outcome = run_scenario(spec, context=RunContext(monitor=monitor))
        entry: dict = {
            "events": [r for r in monitor.events.records if r["type"] != "manifest"],
        }
        recorder = outcome.trace
        if recorder is not None:
            with tempfile.TemporaryDirectory() as tmp:
                trace = recorder.write(Path(tmp) / "trace.jsonl").read_bytes()
            entry["trace"] = {
                "sha256": hashlib.sha256(trace).hexdigest(),
                "records": len(recorder.records),
                "seen": recorder.seen,
                "sampled": recorder.sampled,
                "suspects": recorder.suspects(),
                "summaries": recorder.summaries,
            }
        payload[path.name] = entry
    return payload


def scenario_campaigns() -> dict:
    import os

    from repro.scenario import load_spec, run_campaign, run_scenario
    from repro.scenario.manifest import deterministic_view

    # The pinned numbers are the *full-fidelity* runs; never generate
    # them under the CI smoke caps.
    os.environ.pop("REPRO_BENCH_SMOKE", None)

    payload: dict = {"scenarios": {}, "campaigns": {}}
    for path in sorted((GOLDEN_DIR / "scenarios").glob("*.yaml")):
        spec = load_spec(path)
        if hasattr(spec, "expand"):
            result = run_campaign(spec)
            payload["campaigns"][path.name] = deterministic_view(result.manifest)
        else:
            payload["scenarios"][path.name] = run_scenario(spec).stats
    return payload


def main() -> None:
    _dump("analytic_bounds.json", analytic_bounds())
    _dump("failures_expected.json", failures_expected())
    _dump("fig3_small_sim.json", fig3_small_sim())
    _dump("eventsim_baseline.json", eventsim_baseline())
    _dump("instruments.json", instruments())
    _dump("scenarios/expected.json", scenario_campaigns())


if __name__ == "__main__":
    main()
