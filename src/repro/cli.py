"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``fig3a`` / ``fig3b`` / ``fig4`` / ``fig5a`` / ``fig5b``
    Regenerate the corresponding figure's data as an ASCII table.
    ``--full`` uses the paper's 200-trial configuration; the default is
    a fast reduced-trial run with the same qualitative shape.
``all``
    Every figure in one run and one report (``--output`` also writes
    it to a file) — the artifact to diff against EXPERIMENTS.md after
    changing anything load-bearing.
``provision``
    Cache-provisioning report for an ``(n, m, d, R)`` system.
``plan``
    The adversary's optimal plan against given public parameters, with
    the unreplicated SoCC'11 baseline for contrast.
``calibrate``
    Empirically measure the folded constant ``k`` for given ``(n, d)``.
``scenario``
    Declarative scenario specs (``run`` / ``list`` / ``validate`` /
    ``sweep``): typed YAML/JSON specs resolved through the component
    registry, campaign grids with manifest-tracked provenance and a
    comparative HTML report.  Event-driven attack replays are specs
    too: ``examples/specs/replay.yaml`` (the paper's adversary, traced),
    ``examples/specs/tree.yaml`` (a DistCache cache tree under a
    shard flood) and ``examples/specs/tree-vs-flat.yaml`` (that tree
    against a flat LRU).  See docs/SCENARIOS.md.
``forensics``
    Offline attack forensics over an exported trace JSONL: the ranked
    suspects tables, the per-layer causal path breakdown and the
    alert-aligned traced-request timeline (``--html`` writes the
    standalone dashboard; ``--events-log`` aligns the windows on the
    run's event log and checks the recomputed suspects against its live
    run summaries).  See docs/OBSERVABILITY.md.

Monitoring flags (figures, ``all`` and ``scenario run``): ``--monitor``
attaches the online :class:`~repro.obs.LoadMonitor`, ``--events-out``
writes the structured JSONL event log, and ``--alerts`` prints alert
records live as rules fire.  ``scenario run`` also takes ``--window``,
the simulated-time window width (figure campaigns record one window per
trial), and ``--dashboard``, a standalone HTML page of the running gain
against the Theorem-2 bound.  Its monitor evaluates the bound at the
spec distribution's attack width ``x`` where the distribution has one.

Tracing (``scenario run``): a spec's ``trace:`` section attaches the
:class:`~repro.obs.FlightRecorder` (hash-sampled, RNG-free — results
stay byte-identical to untraced runs); ``--trace-out`` exports the trace
JSONL and ``--forensics-out`` writes the forensic HTML dashboard.

Chaos flags (figures and ``all``): ``--chaos`` enables fault injection
(``--failure-rate`` crashes/s per node, ``--mttr`` mean repair time);
the figures' Monte-Carlo trials sample its steady-state down fraction.
Live failures with failover and explicit schedules are an event-driven
spec's ``chaos:`` section.  See docs/ROBUSTNESS.md.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path
from typing import List, Optional

from .adversary.planner import compare_with_baseline
from .ballsbins.occupancy import calibrate_k_prime
from .core.bounds import fold_constant_k, loglog_over_logd
from .core.notation import SystemParameters
from .core.provisioning import recommend
from .experiments import (
    PAPER,
    run_fig3a,
    run_fig3b,
    run_fig4,
    run_fig5,
    run_fig5a,
    run_fig5b,
)

__all__ = ["main", "build_parser"]

_QUICK_TRIALS = 25

_FIGURES = {
    "fig3a": run_fig3a,
    "fig3b": run_fig3b,
    "fig4": run_fig4,
    "fig5a": run_fig5a,
    "fig5b": run_fig5b,
}

#: What ``repro all`` runs, in order: the figure table with the two
#: fig5 panel views served by one joint sweep (a single fig5 block).
_CAMPAIGN = {
    **{name: run for name, run in _FIGURES.items() if not name.startswith("fig5")},
    "fig5": run_fig5,
}


def _add_metrics_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics-out",
        type=str,
        default=None,
        metavar="PATH",
        help="write a JSON metrics + phase-span snapshot to PATH "
        "(see docs/OBSERVABILITY.md)",
    )
    parser.add_argument(
        "--metrics-prom",
        type=str,
        default=None,
        metavar="PATH",
        help="write a Prometheus text-format metrics snapshot to PATH",
    )


def _add_monitor_flags(parser: argparse.ArgumentParser, window: bool) -> None:
    """Monitor flags; ``window`` adds ``--window`` (event-driven runs only)."""
    parser.add_argument(
        "--monitor",
        action="store_true",
        help="attach the online attack monitor (windows, streaming gain "
        "vs the Theorem-2 bound, alerts; see docs/OBSERVABILITY.md)",
    )
    if window:
        parser.add_argument(
            "--window",
            type=float,
            default=0.1,
            metavar="SECONDS",
            help="monitor window width on the simulated clock (default 0.1s)",
        )
    parser.add_argument(
        "--events-out",
        type=str,
        default=None,
        metavar="PATH",
        help="write the monitor's structured JSONL event log to PATH "
        "(implies --monitor)",
    )
    parser.add_argument(
        "--alerts",
        action="store_true",
        help="print alert records live as monitor rules fire (implies --monitor)",
    )


def _add_chaos_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--chaos",
        action="store_true",
        help="inject node failures: each trial places over replica groups "
        "degraded by the crash/repair process's steady-state down "
        "fraction (see docs/ROBUSTNESS.md)",
    )
    parser.add_argument(
        "--failure-rate",
        type=float,
        default=0.02,
        metavar="RATE",
        help="per-node crash intensity in crashes per simulated second "
        "(default 0.02; used only with --chaos)",
    )
    parser.add_argument(
        "--mttr",
        type=float,
        default=0.25,
        metavar="SECONDS",
        help="mean time to repair a crashed node (default 0.25s)",
    )


def _chaos_config(args: argparse.Namespace):
    """The figures' ChaosConfig, or ``None`` without ``--chaos``."""
    if not args.chaos:
        return None
    from .chaos import ChaosConfig

    return ChaosConfig(failure_rate=args.failure_rate, mttr=args.mttr)


def _wants_monitor(args: argparse.Namespace) -> bool:
    """Whether any flag asks for the online monitor."""
    return bool(
        args.monitor or args.events_out or args.alerts
        or getattr(args, "dashboard", None)
    )


def _run_context(args: argparse.Namespace, monitor_config=None):
    """The run's :class:`~repro.obs.RunContext`, built from its flags.

    ``--metrics-out`` / ``--metrics-prom`` attach a registry and a span
    tracer; any monitor flag attaches a monitor with ``monitor_config``
    (default :class:`~repro.obs.MonitorConfig`).  ``--workers`` sets the
    worker count.
    """
    from .obs import LoadMonitor, MetricsRegistry, MonitorConfig, RunContext, Tracer

    metrics = spans = monitor = None
    if args.metrics_out or args.metrics_prom:
        metrics, spans = MetricsRegistry(), Tracer()
    if _wants_monitor(args):
        on_alert = None
        if args.alerts:
            def on_alert(alert):
                print(
                    f"ALERT [{alert['rule']}] trial={alert.get('trial')} "
                    f"window={alert.get('window')} value={alert.get('value'):.4g} "
                    f"threshold={alert.get('threshold'):.4g}"
                )
        monitor = LoadMonitor(monitor_config or MonitorConfig(), on_alert=on_alert)
    return RunContext(
        metrics=metrics, spans=spans, monitor=monitor,
        workers=1 if args.workers is None else args.workers,
    )


def _scenario_monitor_config(spec, window: float):
    """A scenario run's monitor config: the Theorem-2 bound is judged at
    the spec distribution's attack width ``x``, where it has one."""
    from .obs import MonitorConfig
    from .scenario.build import BuildContext, build_distribution

    distribution = build_distribution(
        spec.workload, spec.adversary,
        BuildContext(params=spec.system, seed=spec.seed),
    )
    return MonitorConfig.from_params(
        spec.system, x=getattr(distribution, "x", None), window=window
    )


def _write_outputs(args: argparse.Namespace, context) -> None:
    """Print and write whatever the context's instruments collected."""
    from .obs import (
        render_forensics_text,
        render_text,
        to_prometheus,
        write_forensics_html,
        write_json,
    )

    metrics, spans = context.metrics, context.spans
    if metrics.enabled:
        if args.metrics_out:
            write_json(args.metrics_out, metrics, tracer=spans)
            print(f"metrics written to {args.metrics_out}")
        if args.metrics_prom:
            with open(args.metrics_prom, "w", encoding="utf-8") as fh:
                fh.write(to_prometheus(metrics, tracer=spans))
            print(f"prometheus metrics written to {args.metrics_prom}")
    monitor = context.monitor
    if monitor.enabled:
        print()
        print(render_text(monitor))
        if args.events_out:
            monitor.events.write(args.events_out)
            print(f"event log written to {args.events_out}")
    recorder = context.trace
    if recorder.enabled:
        print()
        print(render_forensics_text(recorder))
        if args.trace_out:
            recorder.write(args.trace_out)
            print(f"trace written to {args.trace_out}")
        if args.forensics_out:
            write_forensics_html(recorder, args.forensics_out, monitor=monitor)
            print(f"forensics dashboard written to {args.forensics_out}")


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce 'Secure Cache Provision: Provable DDoS Prevention for "
            "Randomly Partitioned Services with Replication' (ICDCS-W 2013)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for fig in _FIGURES:
        p = sub.add_parser(fig, help=f"regenerate {fig} of the paper")
        p.add_argument(
            "--full",
            action="store_true",
            help=f"paper-scale run ({PAPER.trials} trials); default {_QUICK_TRIALS}",
        )
        p.add_argument("--trials", type=int, default=None, help="override trial count")
        p.add_argument("--seed", type=int, default=None, help="root RNG seed")
        p.add_argument(
            "--workers",
            type=int,
            default=1,
            help="trial-execution processes (0 = all CPUs); results are "
            "identical for any value (see docs/PERFORMANCE.md)",
        )
        p.add_argument(
            "--plot", action="store_true", help="append an ASCII plot of the series"
        )
        _add_metrics_flags(p)
        _add_monitor_flags(p, window=False)
        _add_chaos_flags(p)

    prov = sub.add_parser("provision", help="cache-provisioning report")
    prov.add_argument("--nodes", "-n", type=int, required=True, help="back-end nodes n")
    prov.add_argument("--items", "-m", type=int, required=True, help="stored items m")
    prov.add_argument("--replication", "-d", type=int, default=3, help="replication factor d")
    prov.add_argument("--cache", "-c", type=int, default=0, help="current cache size c")
    prov.add_argument("--rate", "-R", type=float, default=1e5, help="offered rate R (qps)")
    prov.add_argument("--k", type=float, default=None, help="folded constant k (default: theory + k')")
    prov.add_argument("--k-prime", type=float, default=1.0, help="Theta(1) remainder k'")

    plan = sub.add_parser("plan", help="adversary's optimal plan vs baseline")
    plan.add_argument("--nodes", "-n", type=int, required=True)
    plan.add_argument("--items", "-m", type=int, required=True)
    plan.add_argument("--replication", "-d", type=int, default=3)
    plan.add_argument("--cache", "-c", type=int, required=True)
    plan.add_argument("--rate", "-R", type=float, default=1e5)
    plan.add_argument("--k", type=float, default=PAPER.k)

    campaign = sub.add_parser("all", help="run every figure and emit one report")
    campaign.add_argument("--full", action="store_true", help="paper-scale (200 trials)")
    campaign.add_argument("--trials", type=int, default=None)
    campaign.add_argument("--seed", type=int, default=None)
    campaign.add_argument(
        "--workers", type=int, default=1,
        help="trial-execution processes (0 = all CPUs)",
    )
    campaign.add_argument(
        "--output", type=str, default=None, help="also write the report to this file"
    )
    _add_metrics_flags(campaign)
    _add_monitor_flags(campaign, window=False)
    _add_chaos_flags(campaign)

    forensics = sub.add_parser(
        "forensics",
        help="offline attack forensics from an exported trace JSONL "
        "(suspects, causal paths, alert-aligned timeline)",
    )
    forensics.add_argument(
        "trace", type=str, help="trace JSONL written by --trace-out"
    )
    forensics.add_argument(
        "--events-log", type=str, default=None, metavar="PATH",
        help="JSONL event log from the same run: aligns final attribution "
        "windows on the run durations and checks the recomputed suspects "
        "against the live run-summary blocks",
    )
    forensics.add_argument(
        "--html", type=str, default=None, metavar="PATH",
        help="write the standalone forensic dashboard HTML to PATH",
    )
    forensics.add_argument(
        "--last", type=int, default=8, metavar="N",
        help="rows per suspects table / alerts shown (default 8)",
    )

    cal = sub.add_parser("calibrate", help="measure the folded constant k empirically")
    cal.add_argument("--nodes", "-n", type=int, default=PAPER.n)
    cal.add_argument("--replication", "-d", type=int, default=PAPER.d)
    cal.add_argument("--balls", type=int, default=50_000, help="balls per trial")
    cal.add_argument("--trials", type=int, default=30)
    cal.add_argument("--seed", type=int, default=None)

    perf = sub.add_parser(
        "perf",
        help="performance observability: bench harness, history, regression gate",
    )
    perf_sub = perf.add_subparsers(dest="perf_command", required=True)

    perf_run = perf_sub.add_parser(
        "run",
        help="run registered benchmarks and append manifests to history; "
        "exits 1 when any bench's check fails",
    )
    perf_run.add_argument(
        "--smoke", action="store_true",
        help="seconds-scale run (same as REPRO_BENCH_SMOKE=1); artifacts "
        "land under *_smoke names",
    )
    perf_run.add_argument(
        "--only", nargs="+", default=None, metavar="BENCH",
        help="run only these benches (default: every registered bench)",
    )
    perf_run.add_argument(
        "--list", action="store_true", help="list registered benches and exit"
    )
    perf_run.add_argument(
        "--history", type=str, default=None, metavar="PATH",
        help="history JSONL file (default: benchmarks/results/history.jsonl)",
    )
    perf_run.add_argument(
        "--trajectory-dir", type=str, default=None, metavar="DIR",
        help="where BENCH_<name>.json trajectories go (default: repo root)",
    )
    perf_run.add_argument(
        "--no-history", action="store_true",
        help="run and emit artifacts without touching history/trajectories",
    )

    perf_compare = perf_sub.add_parser(
        "compare", help="regression verdicts over the perf history"
    )
    perf_compare.add_argument(
        "--history", type=str, default=None, metavar="PATH",
        help="history JSONL file (default: benchmarks/results/history.jsonl)",
    )
    perf_compare.add_argument(
        "--baseline", type=str, default=None, metavar="PATH",
        help="baseline history file (e.g. the committed one); without it "
        "the baseline is the preceding runs in --history",
    )
    perf_compare.add_argument(
        "--k", type=int, default=None,
        help="baseline window: median of up to k runs (default 5)",
    )
    perf_compare.add_argument(
        "--tolerance", type=float, default=None,
        help="relative slowdown threshold (default 0.15 = 15%%)",
    )
    perf_compare.add_argument(
        "--noise-floor", type=float, default=None,
        help="absolute slowdown threshold in seconds (default 0.05)",
    )
    perf_compare.add_argument(
        "--metric", type=str, default="engine_seconds",
        choices=("engine_seconds", "export_seconds", "wall_seconds"),
        help="timing field to compare (default: engine_seconds)",
    )
    perf_compare.add_argument(
        "--fail-on-regression", action="store_true",
        help="exit non-zero on regressions (default: warn only; schema "
        "errors always fail)",
    )

    perf_report = perf_sub.add_parser(
        "report", help="render the perf history as a standalone HTML page"
    )
    perf_report.add_argument(
        "--history", type=str, default=None, metavar="PATH",
        help="history JSONL file (default: benchmarks/results/history.jsonl)",
    )
    perf_report.add_argument(
        "--out", type=str, default="perf_report.html", metavar="PATH",
        help="output HTML path (default: perf_report.html)",
    )

    scen = sub.add_parser(
        "scenario",
        help="declarative scenario specs: run, validate, sweep campaigns "
        "(see docs/SCENARIOS.md)",
    )
    scen_sub = scen.add_subparsers(dest="scenario_command", required=True)

    scen_run = scen_sub.add_parser(
        "run", help="run one scenario spec (YAML or JSON) and print its stats"
    )
    scen_run.add_argument("spec", type=str, help="scenario spec file")
    scen_run.add_argument(
        "--workers", type=int, default=None,
        help="trial-execution processes (0 = all CPUs); overrides the "
        "spec's 'workers' field; results are identical for any value",
    )
    scen_run.add_argument(
        "--json", action="store_true",
        help="print the stats as a JSON object instead of key: value lines",
    )
    scen_run.add_argument(
        "--trace-out", type=str, default=None, metavar="PATH",
        help="write the flight recorder's trace JSONL to PATH (needs a "
        "'trace:' section in the spec)",
    )
    scen_run.add_argument(
        "--forensics-out", type=str, default=None, metavar="PATH",
        help="write the forensic HTML dashboard to PATH (needs a "
        "'trace:' section in the spec)",
    )
    scen_run.add_argument(
        "--dashboard", type=str, default=None, metavar="PATH",
        help="write a standalone HTML dashboard (gain vs bound chart) to "
        "PATH (implies --monitor)",
    )
    _add_metrics_flags(scen_run)
    _add_monitor_flags(scen_run, window=True)

    scen_list = scen_sub.add_parser(
        "list", help="list every registered component by namespace"
    )
    scen_list.add_argument(
        "--namespace", type=str, default=None,
        help="restrict to one registry namespace",
    )
    scen_list.add_argument(
        "--examples", action="store_true",
        help="one line per component with its minimal example params "
        "(materialised against a small reference system)",
    )

    scen_validate = scen_sub.add_parser(
        "validate", help="validate spec files without running anything"
    )
    scen_validate.add_argument(
        "specs", nargs="+", type=str, metavar="SPEC", help="spec files to check"
    )

    scen_sweep = scen_sub.add_parser(
        "sweep", help="expand a campaign spec's grid and run every scenario"
    )
    scen_sweep.add_argument("spec", type=str, help="campaign spec file")
    scen_sweep.add_argument(
        "--workers", type=int, default=None,
        help="trial-execution processes per scenario (0 = all CPUs)",
    )
    scen_sweep.add_argument(
        "--out", type=str, default=None, metavar="DIR",
        help="write the schema-versioned manifest and the comparative "
        "HTML report into DIR",
    )

    return parser


def _run_figure(args: argparse.Namespace) -> int:
    trials = args.trials
    if trials is None:
        trials = PAPER.trials if args.full else _QUICK_TRIALS
    context = _run_context(args)
    chaos = _chaos_config(args)
    if chaos is not None:
        print(chaos.describe())
    result = _FIGURES[args.command](
        trials=trials, seed=args.seed, chaos=chaos, context=context,
    )
    print(result.render())
    _write_outputs(args, context)
    if args.plot:
        from .experiments.plot import ascii_plot

        columns = dict(result.columns)
        x_name, x_values = next(iter(columns.items()))
        numeric = {
            name: values
            for name, values in columns.items()
            if name != x_name and values and isinstance(values[0], (int, float))
            and not isinstance(values[0], bool)
        }
        print()
        print(
            ascii_plot(
                x_values,
                numeric,
                logx=min(x_values) > 0 and max(x_values) / max(min(x_values), 1) > 50,
                title=f"{result.name}: {x_name} vs {', '.join(numeric)}",
                hline=1.0 if any("gain" in s or "sim" in s for s in numeric) else None,
            )
        )
    return 0


def _run_campaign(args: argparse.Namespace) -> int:
    import time

    trials = args.trials
    if trials is None:
        trials = PAPER.trials if args.full else _QUICK_TRIALS
    context = _run_context(args)
    chaos = _chaos_config(args)
    if chaos is not None:
        print(chaos.describe())
    results = []
    started = time.monotonic()
    for figure, driver in _CAMPAIGN.items():
        print(f"running {figure} ({trials} trials per point)...")
        results.append(
            driver(trials=trials, seed=args.seed, chaos=chaos, context=context)
        )
    parts = [
        "# Secure Cache Provision — full evaluation run",
        f"(trials per sweep point: {trials}; "
        f"wall clock: {time.monotonic() - started:.1f}s)",
        "",
    ]
    for result in results:
        parts += [result.render(), ""]
    report = "\n".join(parts)
    print(report)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(report + "\n")
        print(f"report written to {args.output}")
    _write_outputs(args, context)
    return 0


def _read_run_summaries(events_path: str):
    """Per-trial ``(durations, live_suspects)`` from an event log."""
    import json

    durations, live = {}, {}
    for line in Path(events_path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        if record.get("type") != "run-summary":
            continue
        trial = record.get("trial")
        durations[trial] = record.get("duration")
        if "suspects" in record:
            live[trial] = record["suspects"]
    return durations, live


def _run_forensics(args: argparse.Namespace) -> int:
    from .obs import FlightRecorder
    from .obs.forensics import render_forensics_text, write_forensics_html

    durations, live = ({}, {})
    if args.events_log:
        durations, live = _read_run_summaries(args.events_log)
    recorder = FlightRecorder.from_export(
        args.trace, durations=durations or None
    )
    print(render_forensics_text(recorder, last=args.last))
    if live:
        print()
        if recorder.evicted:
            print(
                f"note: {recorder.evicted} record(s) were evicted from the "
                "ring; recomputed rankings cover the retained tail only"
            )
        for summary in recorder.summaries:
            trial = summary["trial"]
            if trial not in live:
                continue
            verdict = (
                "MATCH" if summary["suspects"] == live[trial] else "DIFFER"
            )
            print(
                f"trial {trial}: recomputed suspects {verdict} the live "
                "run-summary block"
            )
    if args.html:
        write_forensics_html(recorder, args.html)
        print(f"forensics dashboard written to {args.html}")
    return 0


def _run_provision(args: argparse.Namespace) -> int:
    params = SystemParameters(
        n=args.nodes, m=args.items, c=args.cache, d=args.replication, rate=args.rate
    )
    report = recommend(params, k=args.k, k_prime=args.k_prime)
    print(report.describe())
    return 0


def _run_plan(args: argparse.Namespace) -> int:
    params = SystemParameters(
        n=args.nodes, m=args.items, c=args.cache, d=args.replication, rate=args.rate
    )
    comparison = compare_with_baseline(params, k=args.k)
    print(comparison.describe())
    return 0


def _run_calibrate(args: argparse.Namespace) -> int:
    k_prime = calibrate_k_prime(
        balls=args.balls,
        bins=args.nodes,
        d=args.replication,
        trials=args.trials,
        seed=args.seed,
    )
    theory = loglog_over_logd(args.nodes, args.replication)
    folded = fold_constant_k(args.nodes, args.replication, k_prime)
    print(
        f"n={args.nodes} d={args.replication} balls={args.balls} trials={args.trials}\n"
        f"log log n / log d = {theory:.4f}\n"
        f"measured k' (worst case over trials) = {k_prime:.4f}\n"
        f"folded k = {folded:.4f}  (paper's figures use k = {PAPER.k})"
    )
    return 0


def _run_perf(args: argparse.Namespace) -> int:
    # Imported lazily: the perf package pulls in the bench harness and
    # is only needed for this subcommand.
    from .exceptions import ReproError
    from .perf import compare as perf_compare
    from .perf import harness, history
    from .perf.report import write_report
    from .perf.schema import PerfSchemaError

    history_path = Path(args.history) if getattr(args, "history", None) else None

    if args.perf_command == "run":
        harness.discover()
        if args.list:
            for spec in harness.registered():
                print(spec.name)
            return 0
        trajectory_dir = (
            Path(args.trajectory_dir) if args.trajectory_dir else None
        )
        try:
            results = harness.run_suite(
                names=args.only,
                smoke=args.smoke,
                history_path=history_path,
                trajectory_dir=trajectory_dir,
                update_history=not args.no_history,
            )
        except ReproError as exc:
            print(f"perf run: {exc}", file=sys.stderr)
            return 1
        failed = [r.spec.name for r in results if not r.ok]
        mode = "smoke" if args.smoke else "full"
        print(
            f"perf run: {len(results)} bench(es) [{mode}]"
            + (f", {len(failed)} check failure(s): {', '.join(failed)}" if failed else "")
        )
        # Manifests of failed checks are still appended (ok=false), so
        # `perf compare` and the report show them too.
        return 1 if failed else 0

    if args.perf_command == "compare":
        try:
            manifests = history.load_history(history_path)
            baseline = (
                history.load_history(Path(args.baseline))
                if args.baseline
                else None
            )
            verdicts = perf_compare.compare_history(
                manifests,
                baseline_manifests=baseline,
                k=args.k if args.k is not None else perf_compare.DEFAULT_K,
                tolerance=(
                    args.tolerance
                    if args.tolerance is not None
                    else perf_compare.DEFAULT_TOLERANCE
                ),
                noise_floor=(
                    args.noise_floor
                    if args.noise_floor is not None
                    else perf_compare.DEFAULT_NOISE_FLOOR
                ),
                metric=args.metric,
            )
        except PerfSchemaError as exc:
            print(f"perf compare: schema error: {exc}", file=sys.stderr)
            return 2
        except ReproError as exc:
            print(f"perf compare: {exc}", file=sys.stderr)
            return 2
        print(perf_compare.render_verdicts(verdicts))
        regressions = [v for v in verdicts if v.is_regression]
        if regressions and args.fail_on_regression:
            return 1
        return 0

    if args.perf_command == "report":
        try:
            manifests = history.load_history(history_path)
        except PerfSchemaError as exc:
            print(f"perf report: schema error: {exc}", file=sys.stderr)
            return 2
        out = Path(args.out)
        write_report(manifests, out)
        print(f"perf report: wrote {out} ({len(manifests)} run(s))")
        return 0

    raise AssertionError(
        f"unhandled perf command {args.perf_command!r}"
    )  # pragma: no cover


def _run_scenario(args: argparse.Namespace) -> int:
    # Imported lazily: the scenario package only loads for this
    # subcommand (mirrors the perf subcommand's pattern).
    from .exceptions import ReproError, ScenarioValidationError
    from .scenario.build import check_spec
    from .scenario.campaign import run_campaign as run_scenario_campaign
    from .scenario.campaign import run_scenario
    from .scenario.registry import REGISTRY, discover
    from .scenario.spec import CampaignSpec, ScenarioSpec, load_spec

    if args.scenario_command == "list":
        discover()
        namespaces = (
            (args.namespace,) if args.namespace else REGISTRY.namespaces()
        )
        ctx = None
        if args.examples:
            from .scenario.build import BuildContext

            ctx = BuildContext(
                params=SystemParameters(n=20, m=500, c=10, d=3, rate=2000.0)
            )
        for namespace in namespaces:
            try:
                entries = REGISTRY.entries(namespace)
            except ScenarioValidationError as exc:
                print(f"scenario list: {exc}", file=sys.stderr)
                return 2
            if ctx is not None:
                print(f"{namespace}:")
                for entry in entries:
                    params = (
                        {} if namespace == "engine" else entry.example_params(ctx)
                    )
                    suffix = f"  {params}" if params else ""
                    print(f"  {entry.name}{suffix}")
            else:
                print(
                    f"{namespace}: "
                    + ", ".join(entry.name for entry in entries)
                )
        return 0

    if args.scenario_command == "validate":
        status = 0
        for path in args.specs:
            try:
                spec = load_spec(path)
                check_spec(spec)
            except ScenarioValidationError as exc:
                print(f"scenario validate: {path}: {exc}", file=sys.stderr)
                status = 2
                continue
            kind = "campaign" if isinstance(spec, CampaignSpec) else "scenario"
            extra = (
                f" ({len(spec.expand())} scenarios)"
                if isinstance(spec, CampaignSpec)
                else ""
            )
            print(f"{path}: OK — {kind} {spec.name!r}{extra}")
        return status

    if args.scenario_command == "run":
        try:
            spec = load_spec(args.spec)
            if not isinstance(spec, ScenarioSpec):
                raise ScenarioValidationError(
                    f"{args.spec} is a campaign spec; use 'scenario sweep'",
                    path="campaign",
                )
            context = _run_context(
                args,
                monitor_config=(
                    _scenario_monitor_config(spec, args.window)
                    if _wants_monitor(args) else None
                ),
            )
            outcome = run_scenario(spec, workers=args.workers, context=context)
        except ScenarioValidationError as exc:
            print(f"scenario run: {exc}", file=sys.stderr)
            return 2
        except ReproError as exc:
            print(f"scenario run: {exc}", file=sys.stderr)
            return 1
        if args.json:
            import json

            print(json.dumps(outcome.stats, indent=2, sort_keys=True))
        else:
            print(f"scenario {spec.name!r} [{spec.engine.kind}]")
            for key, value in outcome.stats.items():
                print(f"  {key}: {value}")
        if outcome.trace is None and (args.trace_out or args.forensics_out):
            print(
                "scenario run: spec has no 'trace:' section; "
                "--trace-out/--forensics-out ignored",
                file=sys.stderr,
            )
        _write_outputs(args, replace(context, trace=outcome.trace))
        if args.dashboard:
            from .obs import write_html

            write_html(context.monitor, args.dashboard,
                       title=f"scenario {spec.name}")
            print(f"dashboard written to {args.dashboard}")
        return 0

    if args.scenario_command == "sweep":
        try:
            campaign = load_spec(args.spec)
            if not isinstance(campaign, CampaignSpec):
                raise ScenarioValidationError(
                    f"{args.spec} is a scenario spec; use 'scenario run'",
                    path="scenario",
                )
            result = run_scenario_campaign(
                campaign,
                workers=args.workers,
                out_dir=Path(args.out) if args.out else None,
                progress=lambda i, total, spec: print(
                    f"[{i + 1}/{total}] {spec.name} [{spec.engine.kind}]"
                ),
            )
        except ScenarioValidationError as exc:
            print(f"scenario sweep: {exc}", file=sys.stderr)
            return 2
        except ReproError as exc:
            print(f"scenario sweep: {exc}", file=sys.stderr)
            return 1
        print(result.describe())
        if result.manifest_path is not None:
            print(f"manifest written to {result.manifest_path}")
        if result.report_path is not None:
            print(f"report written to {result.report_path}")
        return 0

    raise AssertionError(
        f"unhandled scenario command {args.scenario_command!r}"
    )  # pragma: no cover


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command in _FIGURES:
        return _run_figure(args)
    if args.command == "all":
        return _run_campaign(args)
    if args.command == "provision":
        return _run_provision(args)
    if args.command == "plan":
        return _run_plan(args)
    if args.command == "calibrate":
        return _run_calibrate(args)
    if args.command == "forensics":
        return _run_forensics(args)
    if args.command == "perf":
        return _run_perf(args)
    if args.command == "scenario":
        return _run_scenario(args)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
