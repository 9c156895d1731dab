"""Declarative scenarios: specs, the component registry, campaigns.

The seven scenario dimensions (workload × cache × partitioner ×
selection × adversary × chaos × engine) compose through one typed,
versioned spec instead of threaded kwargs::

    from repro.scenario import load_spec, run_scenario
    outcome = run_scenario(load_spec("paper-default.yaml"))

- :mod:`~repro.scenario.registry` — component namespaces +
  self-registration decorators (a leaf module; component packages
  import it, never the reverse);
- :mod:`~repro.scenario.spec` — :class:`ScenarioSpec` /
  :class:`CampaignSpec` models with YAML/JSON round-trip and
  path-reporting validation;
- :mod:`~repro.scenario.build` — per-namespace construction
  conventions turning specs into live objects;
- :mod:`~repro.scenario.engines` — the registered execution engines;
- :mod:`~repro.scenario.campaign` — sweep expansion + execution with a
  schema-versioned manifest (:mod:`~repro.scenario.manifest`) and a
  comparative HTML report (:mod:`~repro.scenario.report`).

This ``__init__`` resolves its exports lazily (PEP 562) so component
modules can import ``repro.scenario.registry`` at class-definition time
without dragging the whole scenario stack — or a circular import —
into every ``import repro``.
"""

from __future__ import annotations

_EXPORTS = {
    "NAMESPACES": "registry",
    "REGISTRY": "registry",
    "ComponentRegistry": "registry",
    "RegistryEntry": "registry",
    "register_component": "registry",
    "discover": "registry",
    "SPEC_VERSION": "spec",
    "ComponentSpec": "spec",
    "ScenarioSpec": "spec",
    "CampaignSpec": "spec",
    "load_spec": "spec",
    "loads_spec": "spec",
    "dumps_spec": "spec",
    "BuildContext": "build",
    "build_component": "build",
    "build_distribution": "build",
    "check_spec": "build",
    "ScenarioOutcome": "campaign",
    "CampaignResult": "campaign",
    "run_scenario": "campaign",
    "run_campaign": "campaign",
    "SCENARIO_SCHEMA_VERSION": "manifest",
    "campaign_manifest": "manifest",
    "validate_campaign_manifest": "manifest",
    "deterministic_view": "manifest",
    "render_campaign_html": "report",
    "write_campaign_html": "report",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module 'repro.scenario' has no attribute {name!r}"
        ) from None
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
