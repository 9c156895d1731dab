"""Turn component specs into live objects.

Each registry namespace has one construction convention: the context
fields its factories conventionally need (``m`` for workloads,
``capacity = c`` for caches, ``n``/``d`` for partitioners, the public
:class:`~repro.core.notation.SystemParameters` for adversaries) are
injected automatically when — and only when — the factory's signature
accepts them and the spec did not supply them explicitly.  Components
whose wiring is genuinely irregular (mixtures of nested workloads, the
admission filter wrapping an inner cache, the adaptive adversary's
feedback loop) register a ``builder`` override next to their class
instead of bending the convention.

Every construction failure — wrong param name, out-of-domain value —
is re-raised as a :class:`~repro.exceptions.ScenarioValidationError`
carrying the spec path of the offending component, so a bad
``cache: {kind: lru, capcity: 10}`` points at ``cache``, not at a
``TypeError`` inside the cache package.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Optional

from ..core.notation import SystemParameters
from ..exceptions import ReproError, ScenarioValidationError
from .registry import REGISTRY, RegistryEntry, discover
from .spec import ComponentSpec

__all__ = [
    "BuildContext",
    "build_component",
    "build_distribution",
    "check_spec",
    "engine_entry",
]


@dataclass(frozen=True)
class BuildContext:
    """What the construction conventions may inject.

    Picklable on purpose: the event engine ships cache factories built
    from a context into worker processes.
    """

    params: SystemParameters
    seed: int = 0


def _accepted(factory, injected: dict, given: dict) -> dict:
    """The subset of ``injected`` the factory accepts and ``given`` omits."""
    try:
        signature = inspect.signature(factory)
    except (TypeError, ValueError):  # pragma: no cover - C callables
        return {}
    accepts_kwargs = any(
        p.kind is inspect.Parameter.VAR_KEYWORD
        for p in signature.parameters.values()
    )
    out = {}
    for name, value in injected.items():
        if name in given:
            continue
        if name in signature.parameters or accepts_kwargs:
            out[name] = value
    return out


#: Context kwargs conventionally offered per namespace (filtered down to
#: what each factory's signature actually accepts).
def _injected(namespace: str, ctx: BuildContext) -> dict:
    params = ctx.params
    if namespace == "workload":
        return {"m": params.m}
    if namespace == "cache":
        return {"capacity": params.c}
    if namespace == "partitioner":
        return {"n": params.n, "d": params.d, "m": params.m, "seed": ctx.seed}
    if namespace == "adversary":
        return {"public": params}
    return {}


def build_component(
    namespace: str,
    spec: ComponentSpec,
    ctx: BuildContext,
    path: str = "",
) -> object:
    """Construct one component from its spec under ``ctx``."""
    where = path or namespace
    discover()
    entry: RegistryEntry = REGISTRY.get(namespace, spec.kind, path=where)
    params = dict(spec.params)
    try:
        if entry.builder is not None:
            return entry.builder(ctx, **params)
        kwargs = dict(params)
        kwargs.update(_accepted(entry.factory, _injected(namespace, ctx), params))
        return entry.factory(**kwargs)
    except ScenarioValidationError as exc:
        if exc.path:
            raise
        raise ScenarioValidationError(f"{where}: {exc}", path=where) from exc
    except (ReproError, TypeError, ValueError) as exc:
        raise ScenarioValidationError(
            f"{where}: cannot build {namespace} {spec.kind!r} "
            f"with params {params!r}: {exc}",
            path=where,
        ) from exc


def check_spec(spec) -> None:
    """Validate a spec statically: resolve every kind, build nothing.

    Static validation for ``repro scenario validate``: catches unknown
    kinds (with the candidate list), engine params the engine does not
    take, and whatever its engine's static checks reject
    (:func:`repro.scenario.engines.check_engine_spec`) before anything
    is constructed.  Accepts a
    :class:`~repro.scenario.spec.ScenarioSpec` or a
    :class:`~repro.scenario.spec.CampaignSpec` (every expanded scenario
    is checked, so sweep overrides cannot smuggle in unknown kinds).
    """
    discover()
    from .engines import check_engine_spec

    scenarios = spec.expand() if hasattr(spec, "expand") else (spec,)
    for scenario in scenarios:
        for section, component in scenario.components().items():
            if component is not None:
                REGISTRY.get(section, component.kind, path=f"{section}.kind")
        engine_entry(scenario)
        check_engine_spec(scenario)


def engine_entry(spec) -> RegistryEntry:
    """The scenario's engine, with its params bound to the engine's signature.

    An engine runs as ``factory(spec, ctx, context, **params)``; a param
    it does not take fails here, at ``engine.<param>``, instead of as a
    ``TypeError`` once the run has started.
    """
    discover()
    engine = spec.engine
    entry = REGISTRY.get("engine", engine.kind, path="engine.kind")
    accepted = tuple(inspect.signature(entry.factory).parameters)[3:]
    for name in engine.params:
        if name not in accepted:
            raise ScenarioValidationError(
                f"engine.{name}: engine {engine.kind!r} takes no param "
                f"{name!r}; accepted: {', '.join(accepted) or '(none)'}",
                path=f"engine.{name}",
            )
    return entry


def build_distribution(
    workload: Optional[ComponentSpec],
    adversary: Optional[ComponentSpec],
    ctx: BuildContext,
):
    """The query distribution of a scenario (workload- or adversary-side).

    Adversary components either expose ``distribution()`` (strategy
    classes) or ``aggregate()`` (botnet coordinators); both yield the
    :class:`~repro.workload.distributions.KeyDistribution` the engines
    consume.
    """
    if workload is not None:
        return build_component("workload", workload, ctx, path="workload")
    source = build_component("adversary", adversary, ctx, path="adversary")
    if hasattr(source, "distribution"):
        return source.distribution()
    return source.aggregate()
