"""Typed, versioned scenario and campaign specs.

A *scenario* is one fully-specified experiment: the system under test
plus one component choice per registry namespace (workload or adversary,
cache, partitioner, selection, chaos, trace, engine) and the campaign
knobs (trials, queries, seed, workers).  A *campaign* is a base scenario plus
a sweep grid — dotted paths mapped to value lists — that expands into
the cross product of concrete scenarios.

Both formats carry an explicit schema version (``scenario: 1`` /
``campaign: 1``) and hard-fail on drift, mirroring
:mod:`repro.perf.schema`.  Every validation error is a
:class:`~repro.exceptions.ScenarioValidationError` whose message starts
with the dotted path of the offending field, so a typo in a 40-line
YAML file points at ``sweep.cache.kind[2]``, not a stack trace.

Specs load from and dump to YAML and JSON.  PyYAML is an optional
dependency: JSON always works, and the YAML entry points raise a clear
error when the library is absent.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple, Union

from ..core.notation import SystemParameters
from ..exceptions import ConfigurationError, ScenarioValidationError

try:  # pragma: no cover - exercised both ways across environments
    import yaml as _yaml
except ImportError:  # pragma: no cover
    _yaml = None

__all__ = [
    "SPEC_VERSION",
    "ComponentSpec",
    "ScenarioSpec",
    "CampaignSpec",
    "load_spec",
    "loads_spec",
    "dumps_spec",
]

#: Spec format version, shared by scenario and campaign files.  Bump on
#: any incompatible change and teach the loaders about the migration.
SPEC_VERSION = 1

_SCENARIO_KEYS = frozenset(
    {
        "scenario",
        "name",
        "system",
        "workload",
        "adversary",
        "cache",
        "partitioner",
        "selection",
        "chaos",
        "trace",
        "engine",
        "trials",
        "queries",
        "seed",
        "workers",
    }
)

_SYSTEM_KEYS = frozenset({"n", "m", "c", "d", "rate", "node_capacity"})

_CAMPAIGN_KEYS = frozenset({"campaign", "name", "base", "sweep"})


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _require_mapping(value: object, path: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise ScenarioValidationError(
            f"{path}: expected a mapping, got {type(value).__name__}",
            path=path,
        )
    return value


def _require_int(value: object, path: str, minimum: Optional[int] = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioValidationError(
            f"{path}: expected an integer, got {value!r}", path=path
        )
    if minimum is not None and value < minimum:
        raise ScenarioValidationError(
            f"{path}: must be >= {minimum}, got {value}", path=path
        )
    return value


def _require_number(value: object, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioValidationError(
            f"{path}: expected a number, got {value!r}", path=path
        )
    return float(value)


def _require_str(value: object, path: str) -> str:
    if not isinstance(value, str) or not value:
        raise ScenarioValidationError(
            f"{path}: expected a non-empty string, got {value!r}", path=path
        )
    return value


def _check_keys(data: Mapping, allowed: frozenset, path: str) -> None:
    for key in data:
        if not isinstance(key, str):
            raise ScenarioValidationError(
                f"{_join(path, str(key))}: keys must be strings, got {key!r}",
                path=_join(path, str(key)),
            )
        if key not in allowed:
            where = _join(path, key)
            raise ScenarioValidationError(
                f"{where}: unknown key {key!r}; "
                f"choose from {sorted(allowed)}",
                path=where,
            )


def _check_version(data: Mapping, key: str, path: str) -> None:
    version = data.get(key)
    if version != SPEC_VERSION:
        where = _join(path, key)
        raise ScenarioValidationError(
            f"{where}: unsupported {key} schema {version!r} "
            f"(this build reads {key} schema {SPEC_VERSION})",
            path=where,
        )


def _plain_params(value: object, path: str) -> object:
    """Recursively check a component param value is plain JSON-able data."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [
            _plain_params(item, f"{path}[{i}]") for i, item in enumerate(value)
        ]
    if isinstance(value, Mapping):
        out = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise ScenarioValidationError(
                    f"{path}: mapping keys must be strings, got {key!r}",
                    path=path,
                )
            out[key] = _plain_params(item, _join(path, key))
        return out
    raise ScenarioValidationError(
        f"{path}: unsupported value {value!r} "
        f"(specs hold plain JSON data only)",
        path=path,
    )


@dataclass(frozen=True)
class ComponentSpec:
    """One component choice: a registry ``kind`` plus its parameters.

    In spec files a component section is either a bare string (the kind,
    no params) or a mapping with a ``kind`` key and the params inline::

        cache: lru
        cache: {kind: tinylfu, inner: lru, sample_size: 50000}
    """

    kind: str
    params: Dict[str, object] = field(default_factory=dict)

    @classmethod
    def from_data(cls, data: object, path: str) -> "ComponentSpec":
        if isinstance(data, str):
            return cls(kind=_require_str(data, path))
        mapping = _require_mapping(data, path)
        if "kind" not in mapping:
            raise ScenarioValidationError(
                f"{path}: component section needs a 'kind' key "
                f"(or be a bare string), got keys {sorted(mapping)}",
                path=path,
            )
        kind = _require_str(mapping["kind"], _join(path, "kind"))
        params = {
            key: _plain_params(value, _join(path, key))
            for key, value in mapping.items()
            if key != "kind"
        }
        return cls(kind=kind, params=params)

    def to_data(self) -> Union[str, dict]:
        """Spec-file form: bare string without params, mapping with."""
        if not self.params:
            return self.kind
        return {"kind": self.kind, **self.params}


def _component(
    data: Mapping,
    key: str,
    path: str = "",
    default: Optional[str] = None,
) -> Optional[ComponentSpec]:
    if key in data:
        if data[key] is None:
            raise ScenarioValidationError(
                f"{_join(path, key)}: component section must not be null "
                f"(omit the key instead)",
                path=_join(path, key),
            )
        return ComponentSpec.from_data(data[key], _join(path, key))
    if default is not None:
        return ComponentSpec(kind=default)
    return None


def _system_from_data(data: object, path: str) -> SystemParameters:
    mapping = _require_mapping(data, path)
    _check_keys(mapping, _SYSTEM_KEYS, path)
    for key in ("n", "m", "c", "d"):
        if key not in mapping:
            raise ScenarioValidationError(
                f"{path}: missing required key {key!r}", path=path
            )
    kwargs = {
        "n": _require_int(mapping["n"], _join(path, "n")),
        "m": _require_int(mapping["m"], _join(path, "m")),
        "c": _require_int(mapping["c"], _join(path, "c")),
        "d": _require_int(mapping["d"], _join(path, "d")),
    }
    if "rate" in mapping:
        kwargs["rate"] = _require_number(mapping["rate"], _join(path, "rate"))
    if mapping.get("node_capacity") is not None:
        kwargs["node_capacity"] = _require_number(
            mapping["node_capacity"], _join(path, "node_capacity")
        )
    try:
        return SystemParameters(**kwargs)
    except ConfigurationError as exc:
        raise ScenarioValidationError(f"{path}: {exc}", path=path) from exc


def _system_to_data(params: SystemParameters) -> dict:
    data = {
        "n": params.n,
        "m": params.m,
        "c": params.c,
        "d": params.d,
        "rate": params.rate,
    }
    if params.node_capacity is not None:
        data["node_capacity"] = params.node_capacity
    return data


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully-specified, runnable experiment.

    Exactly one of ``workload`` (a key distribution queried as-is) and
    ``adversary`` (a strategy that *derives* its distribution from the
    public system parameters) must be set — they are the two ways the
    paper fills the query stream.
    """

    name: str
    system: SystemParameters
    workload: Optional[ComponentSpec] = None
    adversary: Optional[ComponentSpec] = None
    cache: ComponentSpec = field(default_factory=lambda: ComponentSpec("perfect"))
    partitioner: ComponentSpec = field(
        default_factory=lambda: ComponentSpec("random-table")
    )
    selection: ComponentSpec = field(
        default_factory=lambda: ComponentSpec("least-loaded")
    )
    chaos: Optional[ComponentSpec] = None
    trace: Optional[ComponentSpec] = None
    engine: ComponentSpec = field(
        default_factory=lambda: ComponentSpec("monte-carlo")
    )
    trials: int = 5
    queries: int = 20_000
    seed: int = 0
    workers: int = 1

    def __post_init__(self) -> None:
        _require_str(self.name, "name")
        if (self.workload is None) == (self.adversary is None):
            raise ScenarioValidationError(
                "workload: exactly one of 'workload' and 'adversary' "
                "must be set",
                path="workload",
            )
        _require_int(self.trials, "trials", minimum=1)
        _require_int(self.queries, "queries", minimum=1)
        _require_int(self.seed, "seed")
        _require_int(self.workers, "workers", minimum=0)

    @classmethod
    def from_dict(cls, data: object, path: str = "") -> "ScenarioSpec":
        """Build and validate a spec from its plain-data form."""
        mapping = _require_mapping(data, path or "scenario")
        _check_keys(mapping, _SCENARIO_KEYS, path)
        _check_version(mapping, "scenario", path)
        for key in ("name", "system"):
            if key not in mapping:
                raise ScenarioValidationError(
                    f"{path or 'scenario'}: missing required key {key!r}",
                    path=path or "scenario",
                )
        kwargs = {
            "name": _require_str(mapping["name"], _join(path, "name")),
            "system": _system_from_data(mapping["system"], _join(path, "system")),
            "workload": _component(mapping, "workload", path),
            "adversary": _component(mapping, "adversary", path),
            "cache": _component(mapping, "cache", path, default="perfect"),
            "partitioner": _component(
                mapping, "partitioner", path, default="random-table"
            ),
            "selection": _component(
                mapping, "selection", path, default="least-loaded"
            ),
            "chaos": _component(mapping, "chaos", path),
            "trace": _component(mapping, "trace", path),
            "engine": _component(mapping, "engine", path, default="monte-carlo"),
        }
        if "trials" in mapping:
            kwargs["trials"] = _require_int(
                mapping["trials"], _join(path, "trials"), minimum=1
            )
        if "queries" in mapping:
            kwargs["queries"] = _require_int(
                mapping["queries"], _join(path, "queries"), minimum=1
            )
        if "seed" in mapping:
            kwargs["seed"] = _require_int(mapping["seed"], _join(path, "seed"))
        if "workers" in mapping:
            kwargs["workers"] = _require_int(
                mapping["workers"], _join(path, "workers"), minimum=0
            )
        return cls(**kwargs)

    def to_dict(self) -> dict:
        """Plain-data form; ``from_dict(to_dict())`` is the identity."""
        data: Dict[str, object] = {
            "scenario": SPEC_VERSION,
            "name": self.name,
            "system": _system_to_data(self.system),
        }
        if self.workload is not None:
            data["workload"] = self.workload.to_data()
        if self.adversary is not None:
            data["adversary"] = self.adversary.to_data()
        data["cache"] = self.cache.to_data()
        data["partitioner"] = self.partitioner.to_data()
        data["selection"] = self.selection.to_data()
        if self.chaos is not None:
            data["chaos"] = self.chaos.to_data()
        if self.trace is not None:
            data["trace"] = self.trace.to_data()
        data["engine"] = self.engine.to_data()
        data["trials"] = self.trials
        data["queries"] = self.queries
        data["seed"] = self.seed
        data["workers"] = self.workers
        return data

    def components(self) -> Dict[str, Optional[ComponentSpec]]:
        """The spec's component choice per registry namespace."""
        return {
            "workload": self.workload,
            "adversary": self.adversary,
            "cache": self.cache,
            "partitioner": self.partitioner,
            "selection": self.selection,
            "chaos": self.chaos,
            # The trace section resolves through the sampler namespace.
            "sampler": self.trace,
            "engine": self.engine,
        }

    def with_override(self, dotted: str, value: object) -> "ScenarioSpec":
        """Copy with one dotted-path field replaced (sweep expansion).

        Routes through the plain-data form so every override re-runs the
        full validation — a sweep cannot produce a spec that ``load``
        would reject.
        """
        data = self.to_dict()
        _apply_override(data, dotted, value, where=f"sweep.{dotted}")
        return ScenarioSpec.from_dict(data)


def _apply_override(data: dict, dotted: str, value: object, where: str) -> None:
    parts = dotted.split(".")
    if not all(parts):
        raise ScenarioValidationError(
            f"{where}: malformed sweep path {dotted!r}", path=where
        )
    if parts[0] in ("scenario", "name"):
        raise ScenarioValidationError(
            f"{where}: sweep paths must not override {parts[0]!r}",
            path=where,
        )
    node = data
    for i, part in enumerate(parts[:-1]):
        child = node.get(part)
        if isinstance(child, str) and part in (
            "workload", "adversary", "cache", "partitioner", "selection",
            "chaos", "trace", "engine",
        ):
            # Bare-string component shorthand: expand so params can land.
            child = {"kind": child}
            node[part] = child
        if not isinstance(child, dict):
            missing = ".".join(parts[: i + 1])
            raise ScenarioValidationError(
                f"{where}: path {dotted!r} does not resolve "
                f"({missing!r} is not a section of the base scenario)",
                path=where,
            )
        node = child
    node[parts[-1]] = value


@dataclass(frozen=True)
class CampaignSpec:
    """A base scenario plus a sweep grid.

    ``sweep`` maps dotted scenario paths (``cache.kind``, ``system.d``,
    ``adversary.x``) to value lists; :meth:`expand` yields the cross
    product in deterministic order — sweep paths sorted, values in file
    order — with each concrete scenario named
    ``<base>/<path>=<value>/...``.
    """

    name: str
    base: ScenarioSpec
    sweep: Dict[str, Tuple[object, ...]] = field(default_factory=dict)

    @classmethod
    def from_dict(cls, data: object) -> "CampaignSpec":
        mapping = _require_mapping(data, "campaign")
        _check_keys(mapping, _CAMPAIGN_KEYS, "")
        _check_version(mapping, "campaign", "")
        for key in ("name", "base"):
            if key not in mapping:
                raise ScenarioValidationError(
                    f"campaign: missing required key {key!r}", path="campaign"
                )
        name = _require_str(mapping["name"], "name")
        base_data = dict(_require_mapping(mapping["base"], "base"))
        base_data.setdefault("scenario", SPEC_VERSION)
        base_data.setdefault("name", name)
        base = ScenarioSpec.from_dict(base_data, path="base")
        sweep: Dict[str, Tuple[object, ...]] = {}
        if "sweep" in mapping:
            sweep_map = _require_mapping(mapping["sweep"], "sweep")
            for dotted, values in sweep_map.items():
                where = _join("sweep", str(dotted))
                dotted = _require_str(dotted, where)
                if not isinstance(values, (list, tuple)) or not values:
                    raise ScenarioValidationError(
                        f"{where}: expected a non-empty list of values, "
                        f"got {values!r}",
                        path=where,
                    )
                sweep[dotted] = tuple(
                    _plain_params(v, f"{where}[{i}]")
                    for i, v in enumerate(values)
                )
        spec = cls(name=name, base=base, sweep=sweep)
        # Fail fast on unresolvable paths / invalid combinations.
        spec.expand()
        return spec

    def to_dict(self) -> dict:
        base = self.base.to_dict()
        base.pop("scenario", None)
        data: Dict[str, object] = {
            "campaign": SPEC_VERSION,
            "name": self.name,
            "base": base,
        }
        if self.sweep:
            data["sweep"] = {
                dotted: list(values) for dotted, values in self.sweep.items()
            }
        return data

    @property
    def grid_shape(self) -> Tuple[int, ...]:
        """Values per sweep axis, in sorted-path order."""
        return tuple(len(self.sweep[p]) for p in sorted(self.sweep))

    def expand(self) -> List[ScenarioSpec]:
        """The concrete scenarios of the sweep grid, in deterministic order.

        Each is named ``<campaign>/<path>=<label>/...`` (see
        :func:`_axis_labels`).
        """
        if not self.sweep:
            return [replace(self.base, name=self.name)]
        paths = sorted(self.sweep)
        axes = [
            list(zip(self.sweep[p], _axis_labels(self.sweep[p]))) for p in paths
        ]
        scenarios = []
        for combo in itertools.product(*axes):
            spec = self.base
            label_parts = []
            for dotted, (value, label) in zip(paths, combo):
                spec = spec.with_override(dotted, value)
                label_parts.append(f"{dotted}={label}")
            scenarios.append(
                replace(spec, name=f"{self.name}/" + "/".join(label_parts))
            )
        return scenarios


def _axis_labels(values: Tuple[object, ...]) -> List[str]:
    """Name labels for one sweep axis's values.

    A scalar reads as itself.  A component mapping reads as its ``kind``,
    plus ``@i`` (its position on the axis) when another value on the
    axis has the same kind.
    """
    kinds = [
        value.get("kind") if isinstance(value, Mapping) else value
        for value in values
    ]
    labels = []
    for i, value in enumerate(values):
        if isinstance(value, Mapping) and "kind" in value:
            kind = value["kind"]
            labels.append(f"{kind}@{i}" if kinds.count(kind) > 1 else f"{kind}")
        else:
            labels.append(f"{value}")
    return labels


def _parse_text(text: str, fmt: str, source: str) -> object:
    if fmt == "json":
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioValidationError(
                f"{source}: not valid JSON: {exc}", path=source
            ) from exc
    if fmt == "yaml":
        if _yaml is None:
            raise ScenarioValidationError(
                f"{source}: PyYAML is not installed; use JSON specs or "
                f"install pyyaml",
                path=source,
            )
        try:
            return _yaml.safe_load(text)
        except _yaml.YAMLError as exc:
            raise ScenarioValidationError(
                f"{source}: not valid YAML: {exc}", path=source
            ) from exc
    raise ScenarioValidationError(
        f"{source}: unknown spec format {fmt!r}; use 'yaml' or 'json'",
        path=source,
    )


def _format_for(path: Path) -> str:
    return "json" if path.suffix.lower() == ".json" else "yaml"


def _spec_from_data(
    data: object, source: str
) -> Union[ScenarioSpec, CampaignSpec]:
    mapping = _require_mapping(data, source)
    if "campaign" in mapping:
        return CampaignSpec.from_dict(mapping)
    if "scenario" in mapping:
        return ScenarioSpec.from_dict(mapping)
    raise ScenarioValidationError(
        f"{source}: spec needs a 'scenario: {SPEC_VERSION}' or "
        f"'campaign: {SPEC_VERSION}' version key",
        path=source,
    )


def loads_spec(
    text: str, fmt: str = "yaml", source: str = "<string>"
) -> Union[ScenarioSpec, CampaignSpec]:
    """Parse a scenario or campaign spec from a string."""
    return _spec_from_data(_parse_text(text, fmt, source), source)


def load_spec(path: Union[str, Path]) -> Union[ScenarioSpec, CampaignSpec]:
    """Load a spec file; ``.json`` parses as JSON, anything else as YAML."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioValidationError(
            f"{path}: cannot read spec file: {exc}", path=str(path)
        ) from exc
    return loads_spec(text, fmt=_format_for(path), source=str(path))


def dumps_spec(
    spec: Union[ScenarioSpec, CampaignSpec], fmt: str = "yaml"
) -> str:
    """Serialise a spec to YAML (default) or JSON text."""
    data = spec.to_dict()
    if fmt == "json":
        return json.dumps(data, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if fmt == "yaml":
        if _yaml is None:
            raise ScenarioValidationError(
                "PyYAML is not installed; dump as JSON instead", path="<dump>"
            )
        return _yaml.safe_dump(data, sort_keys=False, default_flow_style=False)
    raise ScenarioValidationError(
        f"unknown spec format {fmt!r}; use 'yaml' or 'json'", path="<dump>"
    )

