"""Observability overhead: instrumented vs uninstrumented hot paths.

The observability layer's contract (docs/OBSERVABILITY.md) is that the
default-off configuration costs nothing measurable and that attaching a
registry never changes a result.  This bench quantifies both claims on
the two engines:

- **monte-carlo**: the x-key attack campaign with (a) no instruments
  in its run context (the default), (b) the shared null registry, (c) a
  live ``MetricsRegistry`` plus ``Tracer``.
- **eventsim**: one request-level replay under the same three modes.
- **monitor**: the same replay with the *online monitor* off / null /
  live — the per-request path is the hottest hook in the repository, so
  the null monitor must sit at the uninstrumented floor and even the
  live monitor (windows + streaming entropy + alerts) must not dominate
  the run.
- **trace**: the same replay with the *flight recorder* off / sampled
  (1% — the recommended production rate) / full (every request traced
  and attributed).  The sampler is a keyed hash, not an RNG draw, so
  all three modes must return bit-identical results; the 1% mode must
  stay within 15% of the untraced floor.

Wall time per mode is the *minimum* over ``REPEATS`` runs (minimum, not
mean: instrumentation overhead is a floor effect, and the minimum
discards scheduler noise).  Determinism is asserted strictly —
instrumented results must equal uninstrumented bit for bit; the timing
thresholds stay deliberately lenient because container CI timing is
noisy (the committed full-scale artifact is the honest measurement).

``REPRO_BENCH_SMOKE=1`` shrinks the configuration and writes
``obs_smoke.json`` so the full-scale artifact survives test runs.
"""

from repro.cache.lru import LRUCache
from repro.core.notation import SystemParameters
from repro.obs import (
    NULL_MONITOR,
    NULL_REGISTRY,
    NULL_TRACER,
    FlightRecorder,
    LoadMonitor,
    MetricsRegistry,
    MonitorConfig,
    RunContext,
    TraceConfig,
    Tracer,
)
from repro.perf.harness import register, smoke_mode, timed
from repro.sim.analytic import MonteCarloSimulator
from repro.sim.config import SimulationConfig
from repro.sim.eventsim import EventDrivenSimulator
from repro.workload.adversarial import AdversarialDistribution
from repro.workload.distributions import UniformDistribution

SEED = 20130708

FULL = {
    "params": dict(n=1000, m=100_000, c=200, d=3, rate=1e5),
    "x": 20_000,
    "trials": 40,
    "n_queries": 60_000,
    "repeats": 3,
}
SMOKE = {
    "params": dict(n=100, m=5_000, c=50, d=3, rate=1e5),
    "x": 2_000,
    "trials": 8,
    "n_queries": 8_000,
    "repeats": 2,
}

#: (mode name, registry factory, tracer factory).  ``None`` factories
#: leave the argument at its default-off value.
MODES = (
    ("off", lambda: None, lambda: None),
    ("null", lambda: NULL_REGISTRY, lambda: NULL_TRACER),
    ("full", MetricsRegistry, Tracer),
)

#: (mode name, monitor factory) for the online-monitor section.
MONITOR_MODES = (
    ("off", lambda: None),
    ("null", lambda: NULL_MONITOR),
    ("live", lambda: LoadMonitor(MonitorConfig(window=0.05))),
)

#: (mode name, recorder factory) for the flight-recorder section.
TRACE_MODES = (
    ("off", lambda: None),
    ("sampled", lambda: FlightRecorder(TraceConfig(sample=0.01), seed=SEED)),
    ("full", lambda: FlightRecorder(TraceConfig(sample=1.0), seed=SEED)),
)


def _min_of(repeats, fn):
    best_result, best_seconds = None, None
    for _ in range(repeats):
        result, seconds = timed(fn)
        if best_seconds is None or seconds < best_seconds:
            best_result, best_seconds = result, seconds
    return best_result, best_seconds


def _add_overheads(rows: dict) -> dict:
    """Each mode's wall time as a percentage over the ``off`` row."""
    off = rows["off"]["wall_seconds"]
    for mode in rows:
        rows[mode]["overhead_pct"] = 100.0 * (rows[mode]["wall_seconds"] / off - 1.0)
    return rows


def run_monte_carlo_bench(spec) -> dict:
    params = SystemParameters(**spec["params"])
    rows, baseline = {}, None
    for mode, metrics_factory, tracer_factory in MODES:

        def campaign():
            sim = MonteCarloSimulator(
                SimulationConfig(params=params, trials=spec["trials"], seed=SEED),
                RunContext(metrics=metrics_factory(), spans=tracer_factory()),
            )
            return sim.distribution_attack(
                AdversarialDistribution(params.m, spec["x"])
            )

        report, seconds = _min_of(spec["repeats"], campaign)
        series = report.normalized_max_per_trial
        if baseline is None:
            baseline = series
        rows[mode] = {
            "wall_seconds": seconds,
            "identical_to_off": bool((series == baseline).all()),
        }
    return {
        "config": {**spec["params"], "x": spec["x"], "trials": spec["trials"],
                   "seed": SEED},
        "modes": _add_overheads(rows),
    }


def run_replay_bench(spec, modes, context_of, record_sampled=False) -> dict:
    """One event-driven replay per mode, differing only in its context.

    ``modes`` is one of :data:`MODES`, :data:`MONITOR_MODES` or
    :data:`TRACE_MODES`; ``context_of(*factories)`` builds the replay's
    :class:`RunContext` from a row's factories.  ``record_sampled`` adds
    each mode's flight-recorder sample count (from its last repeat).
    """
    params = SystemParameters(**spec["params"])
    rows, baseline = {}, None
    for mode, *factories in modes:
        sampled = 0

        def replay():
            nonlocal sampled
            context = context_of(*factories)
            sim = EventDrivenSimulator(
                params,
                UniformDistribution(params.m),
                cache=LRUCache(params.c),
                seed=SEED,
                context=context,
            )
            outcome = sim.run(spec["n_queries"])
            sampled = context.trace.sampled
            return outcome

        outcome, seconds = _min_of(spec["repeats"], replay)
        if baseline is None:
            baseline = outcome
        rows[mode] = {
            "wall_seconds": seconds,
            "identical_to_off": bool(
                outcome.normalized_max == baseline.normalized_max
                and (outcome.served == baseline.served).all()
                and outcome.cache_hit_rate == baseline.cache_hit_rate
            ),
        }
        if record_sampled:
            rows[mode]["sampled"] = sampled
    return {
        "config": {**spec["params"], "n_queries": spec["n_queries"], "seed": SEED},
        "modes": _add_overheads(rows),
    }


def _run() -> dict:
    spec = SMOKE if smoke_mode() else FULL
    return {
        "smoke": smoke_mode(),
        "repeats": spec["repeats"],
        "monte_carlo": run_monte_carlo_bench(spec),
        "eventsim": run_replay_bench(
            spec, MODES,
            lambda metrics, spans: RunContext(metrics=metrics(), spans=spans()),
        ),
        "monitor": run_replay_bench(
            spec, MONITOR_MODES, lambda monitor: RunContext(monitor=monitor())
        ),
        "trace": run_replay_bench(
            spec, TRACE_MODES, lambda trace: RunContext(trace=trace()),
            record_sampled=True,
        ),
    }


def _render(payload: dict) -> str:
    lines = [
        "== obs: instrumentation overhead (min over "
        f"{payload['repeats']} runs, smoke: {payload['smoke']})",
    ]
    for section in ("monte_carlo", "eventsim", "monitor", "trace"):
        lines += ["", f"{section}:", "mode     wall_s   overhead  identical"]
        for mode, row in payload[section]["modes"].items():
            lines.append(
                f"{mode:>7}  {row['wall_seconds']:>6.3f}  "
                f"{row['overhead_pct']:>+7.1f}%  {str(row['identical_to_off']):>9}"
            )
    return "\n".join(lines)


def _check(payload: dict) -> None:
    for section in ("monte_carlo", "eventsim", "monitor", "trace"):
        modes = payload[section]["modes"]
        # Hard contract: instrumentation never changes a result.  For
        # the trace section this is the RNG-free sampler claim: traced
        # runs reproduce the untraced golden results bit for bit.
        assert all(row["identical_to_off"] for row in modes.values()), section
        if payload["smoke"] or section == "trace":
            continue
        # Soft contract, full scale only (smoke runs are too short
        # to time reliably on a loaded host): the null sink must
        # stay near the uninstrumented floor, and even full
        # instrumentation must not dominate the run.
        assert modes["null"]["overhead_pct"] < 25.0, section
        live = "live" if "live" in modes else "full"
        assert modes[live]["overhead_pct"] < 100.0, section
    trace = payload["trace"]["modes"]
    assert trace["sampled"]["sampled"] > 0, "1% sampler admitted nothing"
    assert trace["full"]["sampled"] == payload["trace"]["config"]["n_queries"]
    if not payload["smoke"]:
        # The production recommendation: 1% sampling stays within 15%
        # of the untraced floor.  Tracing *everything* honestly costs
        # about one extra run (a record plus attribution per request);
        # bound it so a superlinear regression still fails.
        assert trace["sampled"]["overhead_pct"] < 15.0, "trace"
        assert trace["full"]["overhead_pct"] < 250.0, "trace"


def _workload(payload: dict):
    mc = payload["monte_carlo"]["config"]
    ev = payload["eventsim"]["config"]
    repeats = payload["repeats"]
    modes = len(MODES)
    # eventsim + monitor + trace sections each replay every mode.
    events = 3 * modes * repeats * ev["n_queries"]
    # One ball per uncached key per Monte-Carlo trial.
    balls = modes * repeats * mc["trials"] * max(mc["x"] - mc["c"], 0)
    return {"events": events, "balls": balls}


SPEC = register(
    "obs", run=_run, render=_render, check=_check, workload=_workload, seed=SEED
)
