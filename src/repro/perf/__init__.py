"""Performance observability: the bench harness.

- :mod:`repro.perf.harness` — the registry every ``benchmarks/bench_*``
  script registers into; runs each bench with the engine phase in its
  own span (throughput excludes export time) and writes one record per
  bench, ``benchmarks/results/<name>[_smoke].json``: the bench payload
  plus a ``run`` block.
- :mod:`repro.perf.schema` — run provenance (git SHA, host, RSS peak).

CLI surface: ``repro perf run``.
"""

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
from .schema import git_sha

__all__ = [
    "BenchSpec",
    "BenchResult",
    "register",
    "registered",
    "get_spec",
    "discover",
    "run_suite",
    "active_context",
    "smoke_mode",
    "git_sha",
]
