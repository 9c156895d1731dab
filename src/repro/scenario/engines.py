"""The execution engines, as registry entries.

An engine is a function ``run(spec, ctx, context, **engine_params)``
returning ``(stats, result)``: ``stats`` is a plain-data (JSON-safe,
NaN-free) summary that lands in campaign manifests and golden fixtures,
``result`` the engine's native aggregate (a
:class:`~repro.types.LoadReport` or
:class:`~repro.sim.batch.EventCampaign`) for callers that want more
than the summary.  ``ctx`` is the component
:class:`~repro.scenario.build.BuildContext`; ``context`` the
:class:`repro.obs.RunContext` that
:func:`~repro.scenario.campaign.run_scenario` builds from the spec (its
worker count, plus the flight recorder when the spec has a ``trace:``
section).  Both engines execute their trials through the one campaign
runner, :func:`repro.sim.runner.run_trials`, and are bit-identical across
worker counts given the spec's explicit seed.

- ``monte-carlo`` is the paper's methodology (Section IV): the perfect
  front-end cache and random replica groups are part of the *model*, so
  specs selecting it must keep ``cache: perfect`` and ``partitioner:
  random-table`` (the engine validates this instead of silently
  ignoring the spec), and carry no ``trace:`` section or selection
  params;
- ``event-driven`` replays a queued request stream, so every cache
  policy and partitioner applies.  Its routing is the spec's
  ``selection``: ``least-loaded`` pins each key to its least-pinned
  replica at first sight and ``per-query-random`` picks a uniform
  replica per request — the rules the Monte-Carlo policies of those
  names model.  Any other rule, or selection params, is rejected at
  ``selection`` instead of being silently ignored.

Each engine's static checks — the ones that need no built component —
live in one function per engine (:func:`check_engine_spec` dispatches
on the spec's engine kind).  The engine runs it first and
:func:`~repro.scenario.build.check_spec` runs it too, so ``scenario
validate`` rejects what ``scenario run`` would.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Optional, Tuple

from ..core.notation import SystemParameters
from ..exceptions import ReproError, ScenarioValidationError
from ..obs.context import RunContext
from .build import BuildContext, build_component, build_distribution
from .registry import register_component
from .spec import ComponentSpec, ScenarioSpec

__all__ = ["run_monte_carlo", "run_event_driven", "check_engine_spec"]


def _nan_safe(value: float) -> Optional[float]:
    """Manifests serialise with ``allow_nan=False``; map NaN to None."""
    value = float(value)
    return None if math.isnan(value) else value


def _build_chaos(spec: ScenarioSpec, ctx: BuildContext):
    if spec.chaos is None:
        return None
    return build_component("chaos", spec.chaos, ctx, path="chaos")


def _require_model_component(
    spec: ComponentSpec, expected: str, path: str
) -> None:
    """Require the one component choice the Monte-Carlo model assumes."""
    if spec.kind != expected or spec.params:
        raise ScenarioValidationError(
            f"{path}: the monte-carlo engine models "
            f"'{expected}' (no params) analytically; got kind "
            f"{spec.kind!r} with params {dict(spec.params)!r} — use "
            f"'engine: event-driven' for real component sweeps",
            path=path,
        )


def _check_monte_carlo(spec: ScenarioSpec) -> None:
    """Reject spec sections the Monte-Carlo model cannot honour."""
    _require_model_component(spec.cache, "perfect", "cache")
    _require_model_component(spec.partitioner, "random-table", "partitioner")
    if spec.trace is not None:
        raise ScenarioValidationError(
            "trace: the monte-carlo engine has no per-request stream to "
            "trace; request tracing needs 'engine: event-driven'",
            path="trace",
        )
    if spec.selection.params:
        raise ScenarioValidationError(
            "selection: the monte-carlo engine resolves selection by name "
            f"only; params {dict(spec.selection.params)!r} need "
            "'engine: event-driven'",
            path="selection",
        )


@register_component("engine", "monte-carlo")
def run_monte_carlo(
    spec: ScenarioSpec,
    ctx: BuildContext,
    context: RunContext,
) -> Tuple[dict, object]:
    """The paper's placement simulator over the spec's distribution."""
    from ..sim.analytic import MonteCarloSimulator

    _check_monte_carlo(spec)
    distribution = build_distribution(spec.workload, spec.adversary, ctx)
    try:
        report = MonteCarloSimulator(
            spec.system,
            trials=spec.trials,
            seed=spec.seed,
            selection=spec.selection.kind,
            chaos=_build_chaos(spec, ctx),
            context=context,
        ).distribution_attack(distribution)
    except ScenarioValidationError:
        raise
    except ReproError as exc:
        raise ScenarioValidationError(f"engine: {exc}", path="engine") from exc
    stats = {
        "engine": "monte-carlo",
        "trials": report.trials,
        "worst_case": _nan_safe(report.worst_case),
        "mean": _nan_safe(report.mean),
        "p99": _nan_safe(report.p99),
        "std": _nan_safe(report.std),
    }
    return stats, report


def _spec_cache(cache_spec: ComponentSpec, ctx: BuildContext):
    """Fresh cache per trial (module-level so process pools pickle it)."""
    return build_component("cache", cache_spec, ctx, path="cache")


#: The event engine's routing per selection rule it can replay.
_EVENT_ROUTING = {"least-loaded": "pin", "per-query-random": "random"}


def _check_event_driven(spec: ScenarioSpec) -> None:
    """Reject selection rules the event kernel cannot replay."""
    selection = spec.selection
    if selection.kind not in _EVENT_ROUTING or selection.params:
        raise ScenarioValidationError(
            "selection: the event-driven engine routes requests by "
            f"{' or '.join(repr(kind) for kind in _EVENT_ROUTING)} (no "
            f"params); got kind {selection.kind!r} with params "
            f"{dict(selection.params)!r}",
            path="selection",
        )


#: Each built-in engine's static checks, by engine kind.
_STATIC_CHECKS = {
    "monte-carlo": _check_monte_carlo,
    "event-driven": _check_event_driven,
}


def check_engine_spec(spec: ScenarioSpec) -> None:
    """Run the spec's engine's static checks; build no component."""
    _STATIC_CHECKS[spec.engine.kind](spec)


@register_component("engine", "event-driven")
def run_event_driven(
    spec: ScenarioSpec,
    ctx: BuildContext,
    context: RunContext,
    queue_limit: int = 64,
    service: str = "deterministic",
) -> Tuple[dict, object]:
    """The queueing engine: every cache and partitioner applies."""
    from ..sim.batch import run_event_campaign

    params: SystemParameters = spec.system
    _check_event_driven(spec)
    distribution = build_distribution(spec.workload, spec.adversary, ctx)
    partitioner = build_component(
        "partitioner", spec.partitioner, ctx, path="partitioner"
    )
    try:
        campaign = run_event_campaign(
            params,
            distribution,
            trials=spec.trials,
            n_queries=spec.queries,
            seed=spec.seed,
            cache_factory=partial(_spec_cache, spec.cache, ctx),
            context=context,
            partitioner=partitioner,
            routing=_EVENT_ROUTING[spec.selection.kind],
            queue_limit=queue_limit,
            service=service,
            chaos=_build_chaos(spec, ctx),
        )
    except ScenarioValidationError:
        raise
    except ReproError as exc:
        raise ScenarioValidationError(f"engine: {exc}", path="engine") from exc
    stats = {
        "engine": "event-driven",
        "trials": campaign.trials,
        "worst_case": _nan_safe(campaign.load_report.worst_case),
        "mean": _nan_safe(campaign.load_report.mean),
        "mean_hit_rate": _nan_safe(campaign.mean_hit_rate),
        "mean_drop_rate": _nan_safe(campaign.mean_drop_rate),
        "worst_drop_rate": _nan_safe(campaign.worst_drop_rate),
        "worst_p99_latency": _nan_safe(campaign.worst_p99_latency),
        "failure_events": campaign.total_failure_events,
        "unavailable": campaign.total_unavailable,
    }
    recorder = context.trace
    if recorder.enabled:
        # Conditional block: trace-less specs keep their stats (and the
        # golden fixtures pinning them) byte-identical.
        stats["trace"] = {
            "seen": recorder.seen,
            "sampled": recorder.sampled,
            "evicted": recorder.evicted,
            "alerts": len(recorder.alerts),
            "suspects": recorder.suspects(),
        }
    return stats, campaign
