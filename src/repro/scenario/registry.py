"""The component registry: every scenario dimension resolves by name.

Nine namespaces mirror the scenario dimensions::

    workload x cache x partitioner x selection x layer-selection
             x adversary x chaos x sampler x engine

Components self-register where they are defined via the
:func:`register_component` decorator, so a new cache policy (or
partitioner, adversary, ...) becomes spec-addressable the moment its
module is imported — and the registry contract test
(``tests/test_scenario_registry.py``) fails with a named diff when a
concrete subclass forgets the decorator.

This module is deliberately a *leaf*: it imports nothing from the
component packages (they import *it*), so decorating ``repro.cache.lru``
with ``@register_component("cache", "lru")`` cannot create an import
cycle.  :func:`discover` performs the reverse edge lazily, importing
every component package so all decorators have run before a spec is
resolved.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple, Union

from ..exceptions import ScenarioValidationError

__all__ = [
    "NAMESPACES",
    "RegistryEntry",
    "ComponentRegistry",
    "REGISTRY",
    "register_component",
    "discover",
]

#: The scenario dimensions, in spec order.
NAMESPACES: Tuple[str, ...] = (
    "workload",
    "cache",
    "partitioner",
    "selection",
    "layer-selection",
    "adversary",
    "chaos",
    "sampler",
    "engine",
)

#: Modules imported by :func:`discover` so every self-registration
#: decorator has run.  New component packages append themselves here.
DISCOVER_MODULES: Tuple[str, ...] = (
    "repro.workload",
    "repro.cache",
    "repro.cluster",
    "repro.adversary",
    "repro.chaos",
    "repro.obs.trace",
    "repro.scenario.engines",
)


@dataclass(frozen=True)
class RegistryEntry:
    """One registered component.

    Attributes
    ----------
    namespace, name:
        Where and how the component resolves (``("cache", "lru")``).
    factory:
        The class (or callable) that produces the component.
    example:
        Minimal extra params that make the component constructible in a
        small scenario context — either a dict or a callable
        ``ctx -> dict`` — used by the registry contract test and
        ``repro scenario list --examples``.  ``None`` means the
        component needs no params beyond the injected context.
    builder:
        Optional override ``builder(ctx, **params) -> object`` replacing
        the namespace's default construction convention (see
        :mod:`repro.scenario.build`).
    """

    namespace: str
    name: str
    factory: Callable
    example: Optional[Union[dict, Callable]] = field(default=None, compare=False)
    builder: Optional[Callable] = field(default=None, compare=False)

    def example_params(self, ctx) -> dict:
        """Materialise the minimal example params for ``ctx``."""
        if self.example is None:
            return {}
        if callable(self.example):
            return dict(self.example(ctx))
        return dict(self.example)


class ComponentRegistry:
    """Name -> component resolution across the scenario namespaces."""

    def __init__(self) -> None:
        self._entries: Dict[str, Dict[str, RegistryEntry]] = {
            ns: {} for ns in NAMESPACES
        }

    def register(
        self,
        namespace: str,
        name: str,
        factory: Callable,
        example: Optional[Union[dict, Callable]] = None,
        builder: Optional[Callable] = None,
    ) -> RegistryEntry:
        """Register ``factory`` under ``namespace``/``name``.

        Re-registering the *same* factory is a no-op (module reloads);
        a different factory under a taken name is an error.
        """
        self._check_namespace(namespace, path=namespace)
        if not name or not isinstance(name, str):
            raise ScenarioValidationError(
                f"{namespace}: component name must be a non-empty string, "
                f"got {name!r}",
                path=namespace,
            )
        existing = self._entries[namespace].get(name)
        if existing is not None and existing.factory is not factory:
            raise ScenarioValidationError(
                f"{namespace}.{name}: already registered to "
                f"{existing.factory!r}; refusing to rebind to {factory!r}",
                path=f"{namespace}.{name}",
            )
        entry = RegistryEntry(
            namespace=namespace,
            name=name,
            factory=factory,
            example=example,
            builder=builder,
        )
        self._entries[namespace][name] = entry
        return entry

    def get(self, namespace: str, name: str, path: str = "") -> RegistryEntry:
        """Resolve one component; unknown names fail with the choices."""
        self._check_namespace(namespace, path=path or namespace)
        try:
            return self._entries[namespace][name]
        except KeyError:
            where = path or f"{namespace}.kind"
            raise ScenarioValidationError(
                f"{where}: unknown {namespace} {name!r}; "
                f"choose from {sorted(self._entries[namespace])}",
                path=where,
            ) from None

    def names(self, namespace: str) -> Tuple[str, ...]:
        """Registered names in one namespace, sorted."""
        self._check_namespace(namespace, path=namespace)
        return tuple(sorted(self._entries[namespace]))

    def entries(self, namespace: str) -> Tuple[RegistryEntry, ...]:
        """Registered entries in one namespace, sorted by name."""
        return tuple(
            self._entries[namespace][name] for name in self.names(namespace)
        )

    def namespaces(self) -> Tuple[str, ...]:
        """All namespaces, in spec order."""
        return NAMESPACES

    def _check_namespace(self, namespace: str, path: str) -> None:
        if namespace not in self._entries:
            raise ScenarioValidationError(
                f"{path}: unknown namespace {namespace!r}; "
                f"choose from {list(NAMESPACES)}",
                path=path,
            )


#: The process-wide registry every decorator and spec resolver uses.
REGISTRY = ComponentRegistry()


def register_component(
    namespace: str,
    name: str,
    example: Optional[Union[dict, Callable]] = None,
    builder: Optional[Callable] = None,
):
    """Class decorator: make a component resolvable by ``name``.

    >>> @register_component("cache", "my-policy")     # doctest: +SKIP
    ... class MyPolicyCache(EvictingCache): ...
    """

    def decorate(factory: Callable) -> Callable:
        REGISTRY.register(
            namespace, name, factory, example=example, builder=builder
        )
        return factory

    return decorate


_discovered = False


def discover() -> ComponentRegistry:
    """Import every component package so all registrations have run."""
    global _discovered
    if not _discovered:
        for module in DISCOVER_MODULES:
            importlib.import_module(module)
        _discovered = True
    return REGISTRY
