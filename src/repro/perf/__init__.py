"""Performance observability: profiler, bench harness, history, gate.

The layer ISSUE 5 adds on top of :mod:`repro.obs`:

- :mod:`repro.perf.profiler` — deterministic op-counters (merge-in-
  trial-order, bit-identical across worker counts) + wall-clock spans
  + the RSS high-water mark, one attachable handle.
- :mod:`repro.perf.harness` — the registry every ``benchmarks/bench_*``
  script registers into; runs each bench with the engine phase in its
  own span (throughput excludes export/serialization time) and emits a
  schema-versioned :class:`~repro.perf.schema.RunManifest`.
- :mod:`repro.perf.history` / :mod:`repro.perf.compare` — append-only
  ``history.jsonl`` store, ``BENCH_<name>.json`` trajectories, and the
  median-of-k regression comparator with tolerance + noise floor.
- :mod:`repro.perf.report` — static HTML report (sparklines, top
  spans, nested-span view) sharing the dashboard machinery.

CLI surface: ``repro perf run|compare|report``.
"""

from .compare import (
    DEFAULT_K,
    DEFAULT_NOISE_FLOOR,
    DEFAULT_TOLERANCE,
    Verdict,
    compare_history,
    render_verdicts,
)
from .harness import (
    BenchResult,
    BenchSpec,
    active_context,
    discover,
    get_spec,
    register,
    registered,
    run_suite,
    smoke_mode,
)
from .history import (
    append_manifests,
    default_history_path,
    load_history,
    write_trajectories,
)
from .profiler import Profiler
from .report import render_report, write_report
from .schema import (
    SCHEMA_VERSION,
    PerfSchemaError,
    RunManifest,
    git_sha,
    validate_manifest,
)

__all__ = [
    "Profiler",
    "BenchSpec",
    "BenchResult",
    "register",
    "registered",
    "get_spec",
    "discover",
    "run_suite",
    "active_context",
    "smoke_mode",
    "RunManifest",
    "SCHEMA_VERSION",
    "PerfSchemaError",
    "validate_manifest",
    "git_sha",
    "append_manifests",
    "load_history",
    "write_trajectories",
    "default_history_path",
    "Verdict",
    "compare_history",
    "render_verdicts",
    "DEFAULT_K",
    "DEFAULT_TOLERANCE",
    "DEFAULT_NOISE_FLOOR",
    "render_report",
    "write_report",
]
