"""Deterministic profiler: op-counters, span timing, peak memory.

The profiler is a thin bundle over two observability seams plus the
process RSS high-water mark:

- **op-counters** live in a private :class:`~repro.obs.MetricsRegistry`.
  Run an engine under ``RunContext(metrics=profiler.metrics)`` (or hand
  ``profiler.metrics`` to an allocation kernel or cache hook) and every
  operation count — requests simulated, balls thrown, cache ops, heap
  events — lands here.  Counter values are *deterministic*: the engines
  record per-trial registries that merge in trial order, so
  :meth:`Profiler.op_counts` is bit-identical for every worker count
  (pinned by ``tests/test_perf_profiler.py``).
- **spans** live in a private :class:`~repro.obs.Tracer`; wall-clock,
  explicitly excluded from the determinism guarantee, injectable clock
  for tests.
- **memory**: the snapshot reports the process RSS high-water mark.
  Nothing runs under ``tracemalloc``: it inflates allocation-heavy code
  several-fold, and the harness times what the profiler observes.

The profiler is an *observer*: attaching it never changes an engine
result (the golden-fixture test pins the disabled path byte-for-byte,
and the determinism tests pin the attached path value-for-value).
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Optional

from ..obs.metrics import MetricsRegistry
from ..obs.spans import Tracer
from .schema import peak_rss_bytes

__all__ = ["Profiler"]


def _format_key(name: str, labels) -> str:
    """Stable flat key for one metric series: ``name{k=v,...}``."""
    if not labels:
        return name
    return name + "{" + ",".join(f"{k}={v}" for k, v in labels) + "}"


class Profiler:
    """Op-counters + wall-clock spans + peak memory, one handle.

    Parameters
    ----------
    clock:
        Monotonic time source for the span tracer (injectable so the
        harness tests can assert exact span arithmetic).  Defaults to
        :func:`time.perf_counter`.
    max_spans:
        Raw-span retention cap forwarded to the tracer.
    """

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        max_spans: int = 10_000,
    ) -> None:
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(
            clock=clock if clock is not None else time.perf_counter,
            max_spans=max_spans,
        )

    # -- spans -------------------------------------------------------------

    def span(self, name: str):
        """Open a named wall-clock span (delegates to the tracer)."""
        return self.tracer.span(name)

    def span_aggregates(self) -> Dict[str, dict]:
        """Per-path span statistics (count, total, mean, percentiles)."""
        return self.tracer.aggregates()

    # -- op-counters -------------------------------------------------------

    def count(self, op: str, amount: float = 1, **labels: object) -> None:
        """Record ``amount`` operations of kind ``op`` directly."""
        self.metrics.counter(op, **labels).inc(amount)

    def op_counts(self) -> Dict[str, float]:
        """Every counter as a flat ``{name{labels}: value}`` mapping.

        Deterministic: counters recorded through the engines' metrics
        seams are merged in trial order, never completion order, so
        this mapping is identical for any worker count.
        """
        return {
            _format_key(c.name, c.labels): c.value for c in self.metrics.counters()
        }

    # -- snapshot ----------------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-data dump: ops, span aggregates, memory peak.

        ``tracemalloc_peak_bytes`` is always ``None``; the key stays so
        the block keeps the manifest schema's shape.
        """
        return {
            "ops": self.op_counts(),
            "spans": self.span_aggregates(),
            "memory": {
                "tracemalloc_peak_bytes": None,
                "rss_peak_bytes": peak_rss_bytes(),
            },
        }

