"""Unified benchmark harness: one registry, one manifest per run.

Every script under ``benchmarks/`` declares itself with
:func:`register` — a name, a ``run()`` callable producing the payload,
an optional ``render(payload)`` for the human table, an optional
``check(payload)`` asserting the paper's qualitative claims, and an
optional ``workload(payload)`` reporting how many events/balls the
engine phase processed (for throughput).  The harness then owns
everything the scripts used to copy-paste:

- smoke-mode resolution (``REPRO_BENCH_SMOKE=1`` or ``--smoke``);
- artifact emission under ``benchmarks/results/`` with the *same
  filenames as before* (``<name>.txt`` / ``<name>.json``, with the
  ``_smoke`` suffix in smoke mode so committed full-scale artifacts
  survive test runs);
- profiling: the engine phase runs inside its own span, **separate**
  from the export span, so recorded throughput never includes JSON
  serialization or table rendering time, and never under
  ``tracemalloc`` (a caller's tracing is paused around it);
- the schema-versioned :class:`~repro.perf.schema.RunManifest` and its
  append into ``benchmarks/results/history.jsonl`` plus the top-level
  ``BENCH_<name>.json`` trajectories.

A bench script defines its callables and registers them once;
``repro perf run`` is its only entry point, and exits non-zero when any
bench's check fails::

    SPEC = register("eventsim", run=_run, check=_check, workload=_workload)

Scripts import :func:`register`, :func:`smoke_mode`, :func:`timed`,
:func:`active_context` and the ``emit*`` helpers from this module
directly.

Scale note: the paper runs 200 trials per sweep point; the benches
default to fewer (the per-bench ``TRIALS`` constants) because the
qualitative shape — who wins, where the crossover sits — stabilises far
earlier than the worst-case tail.  ``python -m repro <fig> --full``
reruns any figure at full paper scale, and ``REPRO_BENCH_SMOKE=1`` (or
``repro perf run --smoke``) shrinks the perf benches to a seconds-scale
configuration whose artifacts land under ``*_smoke`` names.
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
from .profiler import Profiler
from .schema import RunManifest, git_sha, peak_rss_bytes

__all__ = [
    "BenchSpec",
    "BenchResult",
    "register",
    "registered",
    "get_spec",
    "discover",
    "run_suite",
    "active_profiler",
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

#: The profiler of the currently executing bench (see
#: :func:`active_profiler`); ``None`` outside :meth:`BenchSpec.execute`.
_ACTIVE_PROFILER: Optional[Profiler] = None


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


def active_profiler() -> Optional[Profiler]:
    """The executing bench's profiler (``None`` outside a harness run).

    Most bench bodies want :func:`active_context` instead.
    """
    return _ACTIVE_PROFILER


def active_context() -> RunContext:
    """The run context a bench hands its engine calls.

    Inside :meth:`BenchSpec.execute` it records op-counters and layer
    spans into the executing bench's profiler; outside a harness run it
    is the null context.  Benches pass it as
    ``context=`` (or its ``metrics`` to an allocation kernel) without
    the harness threading the profiler through any signature.  A span
    opened by an engine nests under the bench's ``<name>/engine`` span,
    so the manifest carries paths such as
    ``eventsim/engine/event-loop/kernel-queues/kernel-drain``.
    """
    profiler = _ACTIVE_PROFILER
    if profiler is None:
        return NULL_CONTEXT
    return RunContext(metrics=profiler.metrics, spans=profiler.tracer)


@contextmanager
def _untraced() -> Iterator[None]:
    """Pause a caller's ``tracemalloc`` session around a timed region.

    Memory tracing costs a large constant factor per allocation, so a
    timing taken under it is not the program's.  Restarting resets the
    traced peak; manifests report only the RSS high-water mark.
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
    if hasattr(payload, "columns") and hasattr(payload, "render"):
        # ExperimentResult (duck-typed to avoid an import cycle).
        record = {
            "name": payload.name,
            "description": payload.description,
            "columns": dict(payload.columns),
            "config": dict(payload.config),
            "notes": list(payload.notes),
        }
    elif isinstance(payload, dict):
        record = dict(payload)
    else:
        raise ReproError(
            f"bench payload must be a dict or ExperimentResult, "
            f"got {type(payload).__name__}"
        )
    record.setdefault("smoke", smoke)
    return record


def _manifest_config(payload_dict: dict) -> dict:
    """The manifest's config block: the payload's ``config`` if present."""
    config = payload_dict.get("config")
    return dict(config) if isinstance(config, dict) else {}


def _manifest_workers(payload_dict: dict) -> Optional[int]:
    """Worker count from the payload config, when the bench records one."""
    config = payload_dict.get("config")
    if isinstance(config, dict):
        workers = config.get("workers")
        if isinstance(workers, int) and not isinstance(workers, bool):
            return workers
    return None


def _manifest_engines(payload_dict: dict) -> Optional[Dict[str, dict]]:
    """Per-engine breakdown from the payload, when the bench records one."""
    engines = payload_dict.get("engines")
    if isinstance(engines, dict):
        cleaned = {
            str(name): dict(stats)
            for name, stats in engines.items()
            if isinstance(stats, dict)
        }
        if cleaned:
            return cleaned
    return None


def _default_render(payload: Any, payload_dict: dict) -> str:
    if hasattr(payload, "render"):
        return payload.render()
    return json.dumps(payload_dict, indent=2, sort_keys=True, default=_json_default)


@dataclass
class BenchResult:
    """Outcome of one harness execution."""

    spec: "BenchSpec"
    payload: Any
    payload_dict: dict
    rendered: str
    manifest: RunManifest
    ok: bool
    error: Optional[str] = None


@dataclass
class BenchSpec:
    """One registered benchmark.

    Parameters
    ----------
    name:
        Artifact stem: writes ``results/<name>.txt`` (and ``.json``),
        appears as ``bench`` in manifests and as ``BENCH_<name>.json``.
    run:
        Zero-argument callable producing the payload (a dict or an
        :class:`~repro.experiments.report.ExperimentResult`).  Reads
        :func:`smoke_mode` itself where a seconds-scale variant exists.
    render:
        ``payload -> str`` table renderer; defaults to
        ``payload.render()`` or pretty-printed JSON.
    check:
        ``payload -> None`` asserting the bench's qualitative claims
        (plain ``assert`` statements); a failure marks the manifest
        ``ok=False`` instead of crashing the suite.
    workload:
        ``payload -> {"events": int | None, "balls": int | None}`` —
        units the *engine* phase processed, for throughput reporting.
    seed:
        Root seed recorded in the manifest.
    """

    name: str
    run: Callable[[], Any]
    render: Optional[Callable[[Any], str]] = None
    check: Optional[Callable[[Any], None]] = None
    workload: Optional[Callable[[Any], Dict[str, Optional[int]]]] = None
    seed: Optional[int] = None
    module: Optional[str] = field(default=None, repr=False)

    def execute(
        self,
        smoke: Optional[bool] = None,
        profiler: Optional[Profiler] = None,
        directory: Optional[Path] = None,
        quiet: bool = False,
    ) -> BenchResult:
        """Run the bench once under the profiler and build its manifest.

        The engine phase (``run()``) executes inside the
        ``<name>/engine`` span, with ``tracemalloc`` off; rendering and
        artifact serialization execute inside the sibling
        ``<name>/export`` span.  Manifest
        throughput divides workload units by the *engine* span only —
        export time is structurally excluded, and
        ``tests/test_perf_harness.py`` pins that with an injected clock.
        """
        global _ACTIVE_PROFILER
        smoke = smoke_mode() if smoke is None else bool(smoke)
        profiler = profiler if profiler is not None else Profiler()
        ok, error = True, None
        previous_profiler = _ACTIVE_PROFILER
        _ACTIVE_PROFILER = profiler
        try:
            with _smoke_env(smoke), _untraced():
                with profiler.span(self.name) as outer:
                    with profiler.span("engine") as engine:
                        payload = self.run()
                    if self.check is not None:
                        try:
                            self.check(payload)
                        except AssertionError as exc:
                            ok, error = False, str(exc) or "check failed"
                    payload_dict = _payload_dict(payload, smoke)
                    with profiler.span("export") as export:
                        rendered = (
                            self.render(payload)
                            if self.render is not None
                            else _default_render(payload, payload_dict)
                        )
                        stem = f"{self.name}_smoke" if smoke else self.name
                        if quiet:
                            target = Path(directory) if directory else results_dir()
                            target.mkdir(parents=True, exist_ok=True)
                            (target / f"{stem}.txt").write_text(
                                rendered + "\n", encoding="utf-8"
                            )
                        else:
                            emit(stem, rendered, directory=directory)
                        emit_json(stem, payload_dict, directory=directory)
        finally:
            _ACTIVE_PROFILER = previous_profiler
        workload = self.workload(payload) if self.workload is not None else {}
        snapshot = profiler.snapshot()
        manifest = RunManifest(
            bench=self.name,
            smoke=smoke,
            ok=ok,
            engine_seconds=float(engine.duration or 0.0),
            export_seconds=float(export.duration or 0.0),
            wall_seconds=float(outer.duration or 0.0),
            config=_manifest_config(payload_dict),
            seed=self.seed,
            workers=_manifest_workers(payload_dict),
            git_sha=git_sha(cwd=bench_dir().parent),
            events=workload.get("events"),
            balls=workload.get("balls"),
            engines=_manifest_engines(payload_dict),
            ops=snapshot["ops"],
            spans=snapshot["spans"],
            rss_peak_bytes=peak_rss_bytes(),
            error=error,
        )
        return BenchResult(
            spec=self,
            payload=payload,
            payload_dict=payload_dict,
            rendered=rendered,
            manifest=manifest,
            ok=ok,
            error=error,
        )


def register(
    name: str,
    run: Callable[[], Any],
    render: Optional[Callable[[Any], str]] = None,
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
    history_path: Optional[Path] = None,
    trajectory_dir: Optional[Path] = None,
    update_history: bool = True,
    quiet: bool = False,
) -> List[BenchResult]:
    """Run a set of registered benches, append history, write trajectories.

    Each bench gets a fresh :class:`Profiler` so its manifest carries
    only its own ops/spans.  History and the top-level
    ``BENCH_<name>.json`` trajectory files update once at the end (and
    only when ``update_history``; ``perf run --no-history`` skips them).
    """
    from .history import append_manifests, default_history_path, load_history
    from .history import write_trajectories

    if not _REGISTRY:
        discover()
    specs = (
        [get_spec(name) for name in names] if names else registered()
    )
    results = [
        spec.execute(smoke=smoke, directory=directory, quiet=quiet)
        for spec in specs
    ]
    if update_history and results:
        history_path = (
            Path(history_path) if history_path else default_history_path()
        )
        append_manifests([r.manifest for r in results], history_path)
        write_trajectories(load_history(history_path), trajectory_dir)
    return results
