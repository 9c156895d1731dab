"""Unified benchmark harness: one registry, one result record per bench.

Every script under ``benchmarks/`` declares itself with
:func:`register` — a name, a ``run()`` callable producing the payload
dict, a ``render(payload)`` for the human table, an optional
``check(payload)`` asserting the bench's invariants, and an optional
``workload(payload)`` reporting how many events/balls the engine phase
processed (for throughput).  The harness then owns
everything the scripts used to copy-paste:

- smoke-mode resolution (``REPRO_BENCH_SMOKE=1`` or ``--smoke``);
- artifact emission under ``benchmarks/results/`` with the *same
  filenames as before* (``<name>.txt`` / ``<name>.json``, with the
  ``_smoke`` suffix in smoke mode so committed full-scale artifacts
  survive test runs);
- timing: the engine phase runs inside its own span, **separate**
  from the export span, so recorded throughput never includes table
  rendering or artifact writing time, and never under ``tracemalloc``
  (a caller's tracing is paused around it);
- the ``run`` block of the JSON record: ok/error, engine/export/wall
  seconds, events/s and balls/s over engine seconds, the RSS peak,
  span aggregates, op-counters, git SHA and host.

A bench script defines its callables and registers them once;
``repro perf run`` is its only entry point, and exits non-zero when any
bench's check fails::

    SPEC = register("eventsim", run=_run, render=_render, check=_check)

Scripts import :func:`register`, :func:`smoke_mode`, :func:`timed` and
:func:`active_context` from this module directly.

The suite times the engines: ``eventsim``, ``parallel`` and ``obs``.
Result tables are not benches.  The paper's figures are the slow tests
in ``tests/test_experiments.py``, and each ablation or extension table
is one slow test in ``tests/test_table_<name>.py`` that prints its table
(``pytest -m slow -s tests/test_table_<name>.py``).
``REPRO_BENCH_SMOKE=1`` (or ``repro perf run --smoke``) shrinks the
benches to a seconds-scale configuration whose artifacts land under
``*_smoke`` names.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import ReproError
from ..obs.context import NULL_CONTEXT, RunContext
from ..obs.metrics import MetricsRegistry
from ..obs.spans import Tracer
from .schema import git_sha, host_info, peak_rss_bytes

__all__ = [
    "BenchSpec",
    "BenchResult",
    "register",
    "registered",
    "get_spec",
    "discover",
    "run_suite",
    "active_context",
    "bench_dir",
    "results_dir",
    "smoke_mode",
    "emit",
    "emit_json",
    "timed",
]

#: Environment flag every bench honours for seconds-scale runs.
SMOKE_ENV = "REPRO_BENCH_SMOKE"

#: Override for the benchmarks directory (tests, exotic layouts).
BENCH_DIR_ENV = "REPRO_BENCH_DIR"

#: Global bench registry: name -> spec (insertion-ordered).
_REGISTRY: Dict[str, "BenchSpec"] = {}

#: The run context of the currently executing bench (see
#: :func:`active_context`); the null context outside
#: :meth:`BenchSpec.execute`.
_ACTIVE_CONTEXT: RunContext = NULL_CONTEXT


def bench_dir() -> Path:
    """The ``benchmarks/`` directory of this checkout.

    Honours ``REPRO_BENCH_DIR``; otherwise resolves relative to the
    package source tree (``src/repro/perf`` -> repo root -> benchmarks).
    """
    override = os.environ.get(BENCH_DIR_ENV)
    if override:
        return Path(override)
    return Path(__file__).resolve().parents[3] / "benchmarks"


def results_dir() -> Path:
    """Where artifacts land (``benchmarks/results/``)."""
    return bench_dir() / "results"


def smoke_mode() -> bool:
    """Whether ``REPRO_BENCH_SMOKE=1`` asks for a seconds-scale run."""
    return os.environ.get(SMOKE_ENV, "") == "1"


def timed(fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Tuple[Any, float]:
    """Run ``fn(*args, **kwargs)`` and return ``(result, wall_seconds)``."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def _json_default(value):
    """JSON fallback for the numpy scalars/arrays payloads carry."""
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.bool_,)):
        return bool(value)
    raise TypeError(f"not JSON serializable: {type(value).__name__}")


def emit(name: str, text: str, directory: Optional[Path] = None) -> Path:
    """Print a result table and persist it under the results directory."""
    print(f"\n{text}\n", file=sys.stderr)
    directory = Path(directory) if directory else results_dir()
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{name}.txt"
    path.write_text(text + "\n", encoding="utf-8")
    return path


def emit_json(name: str, payload: dict, directory: Optional[Path] = None) -> Path:
    """Persist a machine-readable result dict as ``<name>.json``."""
    directory = Path(directory) if directory else results_dir()
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{name}.json"
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True, default=_json_default) + "\n",
        encoding="utf-8",
    )
    return path


def active_context() -> RunContext:
    """The run context a bench hands its engine calls.

    Inside :meth:`BenchSpec.execute` it is the executing bench's own
    context, a fresh registry for op-counters plus a span tracer;
    outside a harness run it is the null context.  Benches pass it as
    ``context=`` without the harness threading it through any
    signature.  A span opened by an engine nests under the bench's
    ``<name>/engine`` span, so the record's ``run`` block carries paths
    such as ``eventsim/engine/event-loop/kernel-queues/kernel-drain``.
    """
    return _ACTIVE_CONTEXT


@contextmanager
def _untraced() -> Iterator[None]:
    """Pause a caller's ``tracemalloc`` session around a timed region.

    Memory tracing costs a large constant factor per allocation, so a
    timing taken under it is not the program's.  Restarting resets the
    traced peak; records report only the RSS high-water mark.
    """
    if not tracemalloc.is_tracing():
        yield
        return
    tracemalloc.stop()
    try:
        yield
    finally:
        tracemalloc.start()


@contextmanager
def _smoke_env(smoke: bool) -> Iterator[None]:
    """Pin ``REPRO_BENCH_SMOKE`` for the duration of one execution."""
    previous = os.environ.get(SMOKE_ENV)
    os.environ[SMOKE_ENV] = "1" if smoke else "0"
    try:
        yield
    finally:
        if previous is None:
            del os.environ[SMOKE_ENV]
        else:
            os.environ[SMOKE_ENV] = previous


def _payload_dict(payload: Any, smoke: bool) -> dict:
    """Normalise a bench payload to the JSON artifact shape."""
    if not isinstance(payload, dict):
        raise ReproError(
            f"bench payload must be a dict, got {type(payload).__name__}"
        )
    if "run" in payload:
        raise ReproError("bench payload must not carry a 'run' key")
    record = dict(payload)
    record.setdefault("smoke", smoke)
    return record


def _op_counts(registry: MetricsRegistry) -> Dict[str, float]:
    """Every counter as a flat ``{name{k=v,...}: value}`` mapping.

    Deterministic: the engines merge per-trial registries in trial
    order, so this mapping is identical for any worker count.
    """
    counts = {}
    for counter in registry.counters():
        labels = ",".join(f"{k}={v}" for k, v in counter.labels)
        counts[f"{counter.name}{{{labels}}}" if labels else counter.name] = (
            counter.value
        )
    return counts


def _per_second(units: Optional[int], seconds: float) -> Optional[float]:
    """``units`` over engine seconds (``None`` without a workload)."""
    if units is None or seconds <= 0:
        return None
    return units / seconds


@dataclass
class BenchResult:
    """Outcome of one harness execution.

    ``record`` is what ``results/<stem>.json`` holds: the payload with
    its keys unchanged plus the ``run`` block.
    """

    spec: "BenchSpec"
    record: dict
    ok: bool
    error: Optional[str] = None


@dataclass
class BenchSpec:
    """One registered benchmark.

    Parameters
    ----------
    name:
        Artifact stem: writes ``results/<name>.txt`` (and ``.json``).
    run:
        Zero-argument callable producing the payload dict.  Reads
        :func:`smoke_mode` itself where a seconds-scale variant exists.
    render:
        ``payload -> str`` table renderer.
    check:
        ``payload -> None`` asserting the bench's invariants
        (plain ``assert`` statements); a failure marks the record
        ``ok: false`` instead of crashing the suite.
    workload:
        ``payload -> {"events": int | None, "balls": int | None}`` —
        units the *engine* phase processed, for throughput reporting.
    seed:
        Root seed recorded in the ``run`` block.
    """

    name: str
    run: Callable[[], Any]
    render: Callable[[Any], str]
    check: Optional[Callable[[Any], None]] = None
    workload: Optional[Callable[[Any], Dict[str, Optional[int]]]] = None
    seed: Optional[int] = None
    module: Optional[str] = field(default=None, repr=False)

    def execute(
        self,
        smoke: Optional[bool] = None,
        clock: Callable[[], float] = time.perf_counter,
        directory: Optional[Path] = None,
        quiet: bool = False,
    ) -> BenchResult:
        """Run the bench once and write its table and JSON record.

        The engine phase (``run()``) executes inside the
        ``<name>/engine`` span, with ``tracemalloc`` off; rendering and
        the table write execute inside the sibling ``<name>/export``
        span.  The JSON record, whose ``run`` block carries those spans'
        durations, is written once they close.  Throughput divides
        workload units by the *engine* span only — export time is
        structurally excluded, and ``tests/test_perf_harness.py`` pins
        that with an injected ``clock``.
        """
        global _ACTIVE_CONTEXT
        smoke = smoke_mode() if smoke is None else bool(smoke)
        context = RunContext(metrics=MetricsRegistry(), spans=Tracer(clock=clock))
        spans = context.spans
        stem = f"{self.name}_smoke" if smoke else self.name
        ok, error = True, None
        previous_context = _ACTIVE_CONTEXT
        _ACTIVE_CONTEXT = context
        try:
            with _smoke_env(smoke), _untraced():
                with spans.span(self.name) as outer:
                    with spans.span("engine") as engine:
                        payload = self.run()
                    if self.check is not None:
                        try:
                            self.check(payload)
                        except AssertionError as exc:
                            ok, error = False, str(exc) or "check failed"
                    record = _payload_dict(payload, smoke)
                    with spans.span("export") as export:
                        rendered = self.render(payload)
                        if quiet:
                            target = Path(directory) if directory else results_dir()
                            target.mkdir(parents=True, exist_ok=True)
                            (target / f"{stem}.txt").write_text(
                                rendered + "\n", encoding="utf-8"
                            )
                        else:
                            emit(stem, rendered, directory=directory)
        finally:
            _ACTIVE_CONTEXT = previous_context
        workload = self.workload(payload) if self.workload is not None else {}
        engine_seconds = float(engine.duration or 0.0)
        events, balls = workload.get("events"), workload.get("balls")
        record["run"] = {
            "ok": ok,
            "error": error,
            "seed": self.seed,
            "engine_seconds": engine_seconds,
            "export_seconds": float(export.duration or 0.0),
            "wall_seconds": float(outer.duration or 0.0),
            "events": events,
            "balls": balls,
            "events_per_second": _per_second(events, engine_seconds),
            "balls_per_second": _per_second(balls, engine_seconds),
            "rss_peak_bytes": peak_rss_bytes(),
            "spans": spans.aggregates(),
            "ops": _op_counts(context.metrics),
            "git_sha": git_sha(cwd=bench_dir().parent),
            "host": host_info(),
        }
        emit_json(stem, record, directory=directory)
        return BenchResult(spec=self, record=record, ok=ok, error=error)


def register(
    name: str,
    run: Callable[[], Any],
    render: Callable[[Any], str],
    check: Optional[Callable[[Any], None]] = None,
    workload: Optional[Callable[[Any], Dict[str, Optional[int]]]] = None,
    seed: Optional[int] = None,
) -> BenchSpec:
    """Register (or replace) one benchmark in the global registry.

    Re-registration with the same name replaces the previous spec —
    module reloads under pytest must not error — but two *different*
    modules claiming one name is a bug worth failing loudly on.
    """
    module = getattr(run, "__module__", None)
    existing = _REGISTRY.get(name)
    if existing is not None and module is not None and existing.module not in (None, module):
        raise ReproError(
            f"bench {name!r} is already registered by module "
            f"{existing.module!r} (attempted re-registration from {module!r})"
        )
    spec = BenchSpec(
        name=name,
        run=run,
        render=render,
        check=check,
        workload=workload,
        seed=seed,
        module=module,
    )
    _REGISTRY[name] = spec
    return spec


def registered() -> List[BenchSpec]:
    """Registered specs, sorted by name."""
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def get_spec(name: str) -> BenchSpec:
    """Fetch one spec, with a helpful error when missing."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "(none)"
        raise ReproError(f"no bench named {name!r}; registered: {known}") from None


def discover(directory: Optional[Path] = None) -> List[BenchSpec]:
    """Import every ``bench_*.py`` under ``benchmarks/`` to register it.

    Scripts self-register at import; this just makes the imports happen,
    with the directory prepended to ``sys.path`` for the duration.
    """
    directory = Path(directory) if directory else bench_dir()
    if not directory.is_dir():
        raise ReproError(
            f"benchmarks directory not found at {directory}; set "
            f"{BENCH_DIR_ENV} to point the harness at a checkout"
        )
    path_entry = str(directory)
    added = path_entry not in sys.path
    if added:
        sys.path.insert(0, path_entry)
    try:
        for script in sorted(directory.glob("bench_*.py")):
            importlib.import_module(script.stem)
    finally:
        if added:
            sys.path.remove(path_entry)
    return registered()


def run_suite(
    names: Optional[Sequence[str]] = None,
    smoke: bool = True,
    directory: Optional[Path] = None,
    quiet: bool = False,
) -> List[BenchResult]:
    """Run a set of registered benches (all of them by default).

    Each bench gets a fresh run context, so its ``run`` block carries
    only its own op-counters and spans.
    """
    if not _REGISTRY:
        discover()
    specs = (
        [get_spec(name) for name in names] if names else registered()
    )
    return [
        spec.execute(smoke=smoke, directory=directory, quiet=quiet)
        for spec in specs
    ]
