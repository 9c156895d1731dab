"""One benchmark child process: set-up timing or a workload's timed passes.

``run.py`` starts this file in a fresh interpreter with ``PYTHONPATH``
pointing at the repo's ``src`` and thread counts pinned to 1.

- ``child.py setup --workload W --seed S [--smoke]`` imports ``repro``,
  validates the workload's specs, prints ``ready`` and exits; the parent
  times it from spawn to that line.
- ``child.py run --workload W --seed S --seconds T [--smoke] [--trace]``
  runs timed passes until at least ``T`` seconds are measured (just one
  with ``--trace``), then with ``--trace`` one more pass under the
  probes, and
  prints one JSON line: per-run digests and invariant results, chunk
  and pass wall times, the reference-loop time after each untraced
  chunk (``hostspeed.py``), ``ru_maxrss`` and, traced, the per-layer
  metrics.
  The traced pass also writes its spans to ``out/trace-W-sS.json``.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import sys
import time
import tracemalloc
import traceback
from pathlib import Path
from typing import Dict, List, Optional

from hostspeed import reference_seconds
from probes import Probes
from workloads import CHUNKS, WORKLOADS, Workload, digest, invariant_error

OUT_DIR = Path(__file__).resolve().parent / "out"


class MeasurementError(RuntimeError):
    """A timed section was asked to run under conditions that distort it."""


def refuse_tracemalloc() -> None:
    """Timings taken while tracemalloc traces allocations are not kept."""
    if tracemalloc.is_tracing():
        raise MeasurementError(
            "tracemalloc is tracing; refusing to time under memory tracing"
        )


def chunk_specs(workload: Workload, seed: int, smoke: bool) -> List[list]:
    """Validated specs per chunk; chunk ``k`` runs at ``seed + k``."""
    from repro.scenario import ScenarioSpec, check_spec

    chunks = []
    for k in range(CHUNKS):
        specs = []
        for data in workload.chunk_specs(seed + k, smoke):
            spec = ScenarioSpec.from_dict(data)
            check_spec(spec)
            specs.append((data, spec))
        chunks.append(specs)
    return chunks


def timed_pass(workload: Workload, chunks: List[list],
               probes: Optional[Probes] = None) -> dict:
    """Run every chunk back to back; time each chunk.

    Untraced, each chunk is followed by one run of the host reference
    loop, timed separately and left out of the pass wall time.  Outcomes
    are checked only after the pass, so checking costs no timed time.  A
    run that raises is recorded as failed and the pass goes on.
    """
    refuse_tracemalloc()
    import repro.scenario as scenario

    clock = time.perf_counter
    outcomes = []
    chunk_walls = []
    reference_walls = []
    for k, specs in enumerate(chunks):
        if probes is not None:
            probes.chunk = k
        start = clock()
        for data, spec in specs:
            try:
                outcomes.append((data, spec, scenario.run_scenario(spec), None))
            except Exception:
                outcomes.append((data, spec, None, traceback.format_exc()))
        chunk_walls.append(clock() - start)
        if probes is None:
            reference_walls.append(reference_seconds())
    wall = sum(chunk_walls)
    traced_malloc = tracemalloc.is_tracing()
    runs = []
    for data, spec, outcome, error in outcomes:
        if error is None and traced_malloc:
            error = "tracemalloc was turned on during the timed pass"
        if error is None:
            error = invariant_error(workload, data, outcome)
        runs.append({
            "name": spec.name,
            "seed": spec.seed,
            "items": workload.items(data),
            "digest": digest(outcome.stats) if outcome is not None else None,
            "error": error,
        })
    return {
        "wall_s": wall,
        "chunk_wall_s": chunk_walls,
        "chunk_reference_s": reference_walls,
        "chunk_items": [sum(workload.items(data) for data, _ in specs) for specs in chunks],
        "runs": runs,
        "outcomes": [o[2] for o in outcomes],
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(probes: Probes, traced: dict, untraced_wall: float) -> Dict[str, object]:
    """The per-layer metrics of one traced pass (None = layer absent)."""
    wall = traced["wall_s"]
    own = probes.self_seconds()
    count = probes.counters
    present = probes.layers_present()
    event_results = [
        res
        for outcome in traced["outcomes"] if outcome is not None
        for res in getattr(outcome.result, "results", ())
    ]
    trace_stats = [
        outcome.stats["trace"]
        for outcome in traced["outcomes"]
        if outcome is not None and "trace" in outcome.stats
    ]
    queries = sum(r.frontend_hits + r.backend_queries for r in event_results)
    backend = sum(r.backend_queries for r in event_results)
    served = sum(int(r.served.sum()) for r in event_results)
    dropped = sum(int(r.dropped.sum()) for r in event_results)
    seen = sum(t["seen"] for t in trace_stats)
    sampled = sum(t["sampled"] for t in trace_stats)

    def s(layer: str) -> float:
        return own.get(layer, 0.0)

    def c(name: str) -> float:
        return count.get(name, 0)

    metrics = {
        "selection.self_s": s("selection"),
        "selection.balls": c("selection.balls"),
        "selection.ns_per_ball": 1e9 * _ratio(s("selection"), c("selection.balls")),
        "failures.self_s": s("failures"),
        "failures.balls": c("failures.balls"),
        "failures.ns_per_ball": 1e9 * _ratio(s("failures"), c("failures.balls")),
        "failures.unavailable_frac": _ratio(c("failures.unavailable"), c("failures.balls")),
        "ballsbins.self_s": s("ballsbins"),
        "ballsbins.groups": c("ballsbins.groups"),
        "ballsbins.ns_per_group": 1e9 * _ratio(s("ballsbins"), c("ballsbins.groups")),
        "workload.self_s": s("workload"),
        "workload.calls": probes.calls("workload"),
        "analytic.self_s": s("analytic"),
        "runner.self_s": s("runner"),
        "scenario.self_s": s("scenario"),
        "kernel.self_s": s("kernel"),
        "kernel.requests": c("kernel.requests"),
        "kernel.ns_per_request": 1e9 * _ratio(s("kernel"), c("kernel.requests")),
        "kernel.fast_frac": _ratio(probes.calls("kernel"), probes.calls("eventsim")),
        "eventsim.self_s": s("eventsim"),
        "engine.self_s": s("engine"),
        "engine.events": c("engine.events"),
        "cache.self_s": s("cache"),
        "cache.accesses": c("cache.accesses"),
        "cache.hit_ratio": _ratio(queries - backend, queries),
        "cache.ns_per_access": 1e9 * _ratio(s("cache"), c("cache.accesses")),
        "queueing.self_s": s("queueing"),
        "queueing.arrivals": c("queueing.arrivals"),
        "queueing.drop_ratio": _ratio(dropped, served + dropped),
        "partitioner.self_s": s("partitioner"),
        "partitioner.lookups": c("partitioner.lookups"),
        "chaos.self_s": s("chaos"),
        "chaos.failure_events": sum(r.failure_events for r in event_results),
        "chaos.retry_ratio": _ratio(sum(r.retries for r in event_results), backend),
        "chaos.unavailable": sum(r.unavailable for r in event_results),
        "trace.self_s": s("trace"),
        "trace.sampled": sampled,
        "trace.sample_ratio": _ratio(sampled, seen),
        "probe.overhead_frac": _ratio(wall, untraced_wall) - 1.0,
        "probe.unattributed_s": probes.unattributed(wall),
    }
    return {
        name: (value if present.get(name.split(".")[0], True) else None)
        for name, value in metrics.items()
    }


def run(workload: Workload, seed: int, seconds: float, smoke: bool, trace: bool) -> dict:
    """The ``run`` mode: timed passes, then optionally one traced pass.

    A traced run makes one untraced pass (its baseline) and the traced
    one, which together take about the budget.
    """
    import numpy

    chunks = chunk_specs(workload, seed, smoke)
    passes = []
    started = time.perf_counter()
    while True:
        done = timed_pass(workload, chunks)
        # Outcomes are checked already; dropping them keeps peak memory
        # independent of how many passes the budget takes.
        del done["outcomes"]
        passes.append(done)
        if trace or time.perf_counter() - started >= seconds:
            break
    first = passes[0]
    for later in passes[1:]:
        for run_a, run_b in zip(first["runs"], later["runs"]):
            if run_b["error"] is None and run_b["digest"] != run_a["digest"]:
                run_b["error"] = "repeated pass gave different stats"
    result = {
        "workload": workload.name,
        "seed": seed,
        "smoke": smoke,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "passes": passes,
        "rss_peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if trace:
        probes = Probes()
        with probes.installed():
            traced = timed_pass(workload, chunks, probes)
        for run_a, run_b in zip(first["runs"], traced["runs"]):
            if run_b["error"] is None and run_b["digest"] != run_a["digest"]:
                run_b["error"] = "traced stats differ from untraced stats"
        untraced_wall = statistics.median(p["wall_s"] for p in passes)
        metrics = layer_metrics(probes, traced, untraced_wall)
        attributed = sum(probes.self_seconds().values())
        result["traced"] = {
            "wall_s": traced["wall_s"],
            "runs": traced["runs"],
            "self_sum_s": attributed,
            "metrics": metrics,
            "targets": dict(probes.status),
        }
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{workload.name}-s{seed}{'-smoke' if smoke else ''}.json"
        path.write_text(json.dumps({
            "workload": workload.name,
            "seed": seed,
            "smoke": smoke,
            "traced_wall_s": traced["wall_s"],
            "untraced_wall_s": untraced_wall,
            "metrics": metrics,
            **probes.dump(),
        }) + "\n", encoding="utf-8")
        result["trace_file"] = str(path)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.mode == "setup":
        chunk_specs(workload, args.seed, args.smoke)
        print("ready", flush=True)
        return 0
    result = run(workload, args.seed, args.seconds, args.smoke, args.trace)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
