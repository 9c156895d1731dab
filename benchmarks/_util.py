"""Thin shim over :mod:`repro.perf.harness` (the unified bench harness).

The helpers every bench script imports (``emit``, ``emit_json``,
``smoke_mode``, ``timed``) now live in the harness, next to
``register()`` — the entry point each ``bench_*.py`` declares itself
through.  This module only re-exports them so the scripts keep one
import style and external callers of the old helpers keep working.

Scale note: the paper runs 200 trials per sweep point; the benches
default to fewer (the per-bench ``TRIALS`` constants) because the
qualitative shape — who wins, where the crossover sits — stabilises far
earlier than the worst-case tail.  ``python -m repro <fig> --full``
reruns any figure at full paper scale, and ``REPRO_BENCH_SMOKE=1`` (or
``repro perf run --smoke``) shrinks the perf benches to a seconds-scale
configuration whose artifacts land under ``*_smoke`` names.
"""

from repro.perf.harness import (  # noqa: F401
    active_context,
    active_profiler,
    emit,
    emit_json,
    register,
    smoke_mode,
    timed,
)
