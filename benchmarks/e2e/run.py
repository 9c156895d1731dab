"""Benchmark of record: the paper's Monte-Carlo sweeps and event-engine runs.

Usage, from the repo root::

    python3 benchmarks/e2e/run.py [--workload W] [--seed S] [--seconds T]
                                  [--trace [0|1]] [--smoke] [--update-reference]

Each workload runs in its own fresh child interpreter (``child.py``),
one at a time, with ``workers=1`` and BLAS/OpenMP threads pinned to 1.
The untraced run prints the end-to-end metrics (set-up time, throughput,
peak RSS), with timings in seconds at nominal host speed
(``hostspeed.py``), and, as text only, the raw median pass wall time,
the host slowdown and the error rate; ``--trace`` instead adds one
pass under per-layer probes and prints the per-layer metrics.  Every
line is ``workload metric value unit``; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Correctness: every scenario run's ``outcome.stats`` digest is compared
with ``reference.json`` when the seed and size are pinned there, and
seed-independent invariants are checked for every seed.  Any failure
makes the command exit 1.  ``--update-reference`` records the digests
of the runs it makes instead of comparing them.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from hostspeed import NOMINAL_S, reference_seconds, scaled
from workloads import CHUNKS, DEFAULT_SEED, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
CHILD = HERE / "child.py"
REFERENCE_PATH = HERE / "reference.json"

#: End-to-end metrics of the untraced run: name -> unit.  ``items_per_s``
#: counts placed balls (mc-*) or simulated requests (event-*).
END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "rss_peak_mb": "MiB",
}

#: Per-layer metrics of the traced run: name -> unit.
PER_LAYER = {
    "selection.self_s": "s", "selection.balls": "count", "selection.ns_per_ball": "ns",
    "failures.self_s": "s", "failures.balls": "count", "failures.ns_per_ball": "ns",
    "failures.unavailable_frac": "fraction",
    "ballsbins.self_s": "s", "ballsbins.groups": "count", "ballsbins.ns_per_group": "ns",
    "workload.self_s": "s", "workload.calls": "count",
    "analytic.self_s": "s", "runner.self_s": "s", "scenario.self_s": "s",
    "kernel.self_s": "s", "kernel.requests": "count", "kernel.ns_per_request": "ns",
    "kernel.fast_frac": "fraction",
    "eventsim.self_s": "s", "engine.self_s": "s", "engine.events": "count",
    "cache.self_s": "s", "cache.accesses": "count", "cache.hit_ratio": "fraction",
    "cache.ns_per_access": "ns",
    "queueing.self_s": "s", "queueing.arrivals": "count", "queueing.drop_ratio": "fraction",
    "partitioner.self_s": "s", "partitioner.lookups": "count",
    "chaos.self_s": "s", "chaos.failure_events": "count", "chaos.retry_ratio": "fraction",
    "chaos.unavailable": "count",
    "trace.self_s": "s", "trace.sampled": "count", "trace.sample_ratio": "fraction",
    "probe.overhead_frac": "fraction", "probe.unattributed_s": "s",
}

#: Timed set-up spawns, keyed by ``--smoke``; one discarded warm-up precedes them.
SETUP_SPAWNS = {False: 5, True: 2}

#: Reference-loop runs before each set-up spawn.  A spawn is too short
#: for one loop next to it to track the host; the median of all of them
#: is steadier (README.md, stability record).
SETUP_REFERENCES = 3

#: Traced wall time must equal summed self time plus unattributed time
#: within this share.
ACCOUNTING_TOLERANCE = 0.01

#: A run must end within 180 s; a child still going after this is hung.
CHILD_TIMEOUT_S = 170


def child_env() -> Dict[str, str]:
    """The children's environment: this repo's ``src``, one thread each.

    ``REPRO_BENCH_SMOKE`` would silently shrink every scenario, so it is
    dropped; ``PYTHONTRACEMALLOC`` is kept, and a child that starts
    tracing refuses to time.  A fixed hash seed gives every child the
    same dict and set layouts.
    """
    env = {
        key: value
        for key, value in os.environ.items()
        if key not in ("PYTHONPATH", "REPRO_BENCH_SMOKE")
    }
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def git_sha() -> str:
    """The checkout's commit, or ``unknown`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _child_args(mode: str, workload: Workload, args) -> List[str]:
    argv = [sys.executable, str(CHILD), mode, "--workload", workload.name,
            "--seed", str(args.seed)]
    if args.smoke:
        argv.append("--smoke")
    return argv


def time_setup(workload: Workload, args, env) -> Tuple[List[float], List[float]]:
    """Set-up seconds of each timed spawn after one warm-up, from spawn
    until the child has imported repro and validated the workload's
    specs; and the times of the host reference loop, run
    ``SETUP_REFERENCES`` times before each spawn."""
    times = []
    references = []
    for _ in range(1 + SETUP_SPAWNS[args.smoke]):
        references += [reference_seconds() for _ in range(SETUP_REFERENCES)]
        start = time.perf_counter()
        proc = subprocess.Popen(
            _child_args("setup", workload, args), cwd=ROOT, env=env,
            stdout=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line != "ready" or code != 0:
            raise RuntimeError(f"set-up child for {workload.name} failed (exit {code})")
        times.append(elapsed)
    return times[1:], references


def run_child(workload: Workload, args, env) -> Optional[dict]:
    """The workload child's result, or None when it failed."""
    argv = _child_args("run", workload, args) + ["--seconds", str(args.seconds)]
    if args.trace:
        argv.append("--trace")
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"# {workload.name}: child timed out", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"# {workload.name}: child exited {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def gate(workload: Workload, args, result: Optional[dict], reference: dict) -> List[dict]:
    """Every scenario run of the child, failed ones carrying an ``error``.

    Digests are compared against ``reference.json`` when it pins this
    workload, size and seed under the same Python and numpy versions;
    otherwise only the child's invariant checks apply.
    """
    expected = workload.runs_per_pass(args.smoke)
    if result is None:
        passes = 2 if args.trace else 1
        return [{"error": "child failed"}] * (expected * passes)
    runs = [run for p in result["passes"] for run in p["runs"]]
    if args.trace:
        runs += result["traced"]["runs"]
    size = "smoke" if args.smoke else "full"
    pinned = reference.get("digests", {}).get(workload.name, {}).get(size, {})
    want = pinned.get(str(args.seed))
    same_env = (reference.get("python"), reference.get("numpy")) == (
        result["python"], result["numpy"])
    if args.update_reference:
        return runs
    if want is not None and not same_env:
        print(f"# {workload.name}: reference digests are for Python "
              f"{reference.get('python')} / numpy {reference.get('numpy')}; "
              f"checking invariants only")
    elif want is not None:
        for i, run in enumerate(runs):
            if run["error"] is None and run["digest"] != want[i % expected]:
                run["error"] = f"digest mismatch for {run['name']} (seed {run['seed']})"
    return runs


def end_to_end(result: dict, setup: Tuple[List[float], List[float]]) -> Dict[str, float]:
    """Untraced metrics, plus the text-only ``wall_s`` and ``host_slowdown``.

    Timings are seconds at nominal host speed (``hostspeed.py``).
    ``setup_s`` is the median spawn time scaled by the median of the
    reference loops run between spawns.  Each chunk is scaled by the
    reference loop run right after it, and throughput is one pass's
    items over the sum, across the pass's chunks, of each chunk's median
    over the run's passes.  ``host_slowdown`` is the chunks' median
    reference loop time over its nominal time, so raw seconds are scaled
    seconds times it.
    """
    spawns, setup_references = setup
    passes = result["passes"]
    per_chunk = [
        statistics.median(
            scaled(p["chunk_wall_s"][k], p["chunk_reference_s"][k]) for p in passes
        )
        for k in range(CHUNKS)
    ]
    references = [ref for p in passes for ref in p["chunk_reference_s"]]
    return {
        "setup_s": scaled(statistics.median(spawns), statistics.median(setup_references)),
        "items_per_s": sum(passes[0]["chunk_items"]) / sum(per_chunk),
        "rss_peak_mb": result["rss_peak_mb"],
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "host_slowdown": statistics.median(references) / NOMINAL_S,
    }


def _show(workload: str, name: str, value, unit: str) -> None:
    text = "absent" if value is None else f"{value:.6g}"
    print(f"{workload} {name} {text} {unit}")


def report_traced(name: str, result: dict, prefix: str, metrics: dict) -> bool:
    """Print the per-layer metrics; True when the time accounting holds."""
    traced = result["traced"]
    layer = traced["metrics"]
    for metric, unit in PER_LAYER.items():
        _show(name, metric, layer[metric], unit)
        metrics[prefix + metric] = {"value": layer[metric] or 0, "unit": unit}
    total = traced["self_sum_s"] + layer["probe.unattributed_s"]
    off = abs(total - traced["wall_s"]) / traced["wall_s"]
    print(f"# {name} self_s sum {traced['self_sum_s']:.6g} + unattributed "
          f"{layer['probe.unattributed_s']:.6g} = {total:.6g} s vs traced wall "
          f"{traced['wall_s']:.6g} s (off {off:.2%}); trace file "
          f"{Path(result['trace_file']).relative_to(ROOT)}")
    for target, status in sorted(traced["targets"].items()):
        if status != "installed":
            print(f"# {name} probe {target} {status}")
    return off <= ACCOUNTING_TOLERANCE


def describe(workload: Workload, args) -> str:
    specs = workload.chunk_specs(args.seed, args.smoke)
    return (
        f"# {workload.name} seeds={args.seed}..{args.seed + CHUNKS - 1} "
        f"chunks={CHUNKS} runs_per_chunk={len(specs)} trials={specs[0]['trials']} "
        f"{workload.item}_per_chunk={sum(workload.items(s) for s in specs)}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measurement budget; at least one full pass always runs")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="seconds-scale sizes")
    parser.add_argument("--update-reference", action="store_true",
                        help="record this run's digests in reference.json")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    reference = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
    names = [args.workload] if args.workload else list(WORKLOADS)
    env = child_env()
    provenance = {
        "git": git_sha(), "seed": args.seed, "smoke": args.smoke, "trace": bool(args.trace),
        "seconds": args.seconds, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": metadata.version("numpy"),
    }
    print(f"# benchmark {json.dumps(provenance, sort_keys=True)}")
    attempted = failed = 0
    accounting_ok = True
    metrics: Dict[str, dict] = {}
    for name in names:
        workload = WORKLOADS[name]
        print(describe(workload, args), flush=True)
        setup = None if args.trace else time_setup(workload, args, env)
        result = run_child(workload, args, env)
        runs = gate(workload, args, result, reference)
        errors = [run["error"] for run in runs if run["error"] is not None]
        attempted += len(runs)
        failed += len(errors)
        for error in sorted(set(errors)):
            print(f"# {name} FAILED: {error.strip().splitlines()[-1]}")
        if args.update_reference and result is not None and not errors:
            size = "smoke" if args.smoke else "full"
            digests = reference.setdefault("digests", {}).setdefault(name, {})
            digests.setdefault(size, {})[str(args.seed)] = [
                run["digest"] for run in result["passes"][0]["runs"]
            ]
            reference.update(python=result["python"], numpy=result["numpy"])
        prefix = "" if len(names) == 1 else f"{name}:"
        if result is not None and args.trace:
            accounting_ok &= report_traced(name, result, prefix, metrics)
        elif result is not None:
            values = end_to_end(result, setup)
            for metric, unit in END_TO_END.items():
                shown = f"{workload.item}_per_s" if metric == "items_per_s" else metric
                _show(name, shown, values[metric], unit)
                metrics[prefix + metric] = {"value": values[metric], "unit": unit}
            _show(name, "wall_s", values["wall_s"], "s")
            _show(name, "host_slowdown", values["host_slowdown"], "x")
        _show(name, "error_rate", len(errors) / len(runs), "fraction")
    if args.update_reference:
        REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                                  encoding="utf-8")
    print(f"# total {time.perf_counter() - started:.3f} s")
    correct = failed == 0 and accounting_ok and len(metrics) > 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
