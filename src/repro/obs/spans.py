"""Wall-clock phase spans: nestable named spans over wall-clock time.

The span tracer answers "where does wall-clock go?" for a simulation
run — workload generation, cache replay, partitioning, allocation,
reporting — without touching the deterministic metrics registry.  Span
durations are wall-clock and therefore *not* reproducible across runs or
worker counts; they live here, separate from :mod:`repro.obs.metrics`,
exactly so that the registry's serial-equals-parallel guarantee stays
intact.

Spans nest: entering ``tracer.span("campaign")`` then
``tracer.span("trial")`` records the inner span under the path
``"campaign/trial"``.  Per-path aggregates (count, total seconds and a
log-scale duration histogram with p50/p95/p99) are maintained
incrementally; the raw span list is capped so long campaigns cannot grow
memory without bound.  (Per-request tracing is a different instrument:
the flight recorder in :mod:`repro.obs.trace`.)
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from .metrics import Histogram

__all__ = ["Span", "Tracer", "NullTracer", "NULL_TRACER", "as_tracer"]

#: Duration buckets: powers of two from ~1 microsecond to ~16k seconds.
_DURATION_BOUNDS: Tuple[float, ...] = tuple(2.0 ** e for e in range(-20, 15))


class Span:
    """One completed (or in-flight) span."""

    __slots__ = ("name", "path", "start", "duration")

    def __init__(self, name: str, path: str, start: float) -> None:
        self.name = name
        self.path = path
        self.start = start
        self.duration: Optional[float] = None  # None while still open

    def as_dict(self) -> dict:
        """Plain-data form for exports."""
        return {
            "name": self.name,
            "path": self.path,
            "start": self.start,
            "duration": self.duration,
        }


class _PathAggregate:
    """Incremental per-path statistics (count, total, duration histogram)."""

    __slots__ = ("count", "total", "histogram")

    def __init__(self, path: str) -> None:
        self.count = 0
        self.total = 0.0
        self.histogram = Histogram(
            "span_duration_seconds", (("span", path),), bounds=_DURATION_BOUNDS
        )

    def record(self, duration: float) -> None:
        self.count += 1
        self.total += duration
        self.histogram.observe(duration)


class Tracer:
    """Collects nestable named spans and per-path duration aggregates.

    Parameters
    ----------
    clock:
        Monotonic time source (seconds); injectable for deterministic
        tests.  Defaults to :func:`time.perf_counter`.
    max_spans:
        Cap on retained *raw* spans; aggregates keep counting beyond the
        cap and ``dropped_spans`` records how many raw spans were shed.
    """

    enabled = True

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        max_spans: int = 10_000,
    ) -> None:
        if max_spans < 0:
            raise ValueError(f"max_spans must be non-negative, got {max_spans}")
        self._clock = clock
        self._max_spans = max_spans
        self._stack: List[str] = []
        self._spans: List[Span] = []
        self._aggregates: Dict[str, _PathAggregate] = {}
        self.dropped_spans = 0

    @property
    def current_path(self) -> str:
        """Slash-joined path of the currently open spans (may be '')."""
        return "/".join(self._stack)

    @property
    def depth(self) -> int:
        """Number of currently open spans."""
        return len(self._stack)

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Open a named span; closes (and records) on exit, even on error."""
        if "/" in name:
            raise ValueError(f"span names must not contain '/', got {name!r}")
        self._stack.append(name)
        span = Span(name, "/".join(self._stack), self._clock())
        try:
            yield span
        finally:
            span.duration = self._clock() - span.start
            self._stack.pop()
            if len(self._spans) < self._max_spans:
                self._spans.append(span)
            else:
                self.dropped_spans += 1
            aggregate = self._aggregates.get(span.path)
            if aggregate is None:
                aggregate = self._aggregates[span.path] = _PathAggregate(span.path)
            aggregate.record(span.duration)

    def spans(self) -> List[Span]:
        """Completed raw spans, in completion order (capped)."""
        return list(self._spans)

    def aggregates(self) -> Dict[str, dict]:
        """Per-path stats: count, total seconds, mean and p50/p95/p99."""
        result: Dict[str, dict] = {}
        for path in sorted(self._aggregates):
            aggregate = self._aggregates[path]
            stats = {
                "count": aggregate.count,
                "total_seconds": aggregate.total,
                "mean_seconds": aggregate.total / aggregate.count,
            }
            stats.update(
                {
                    key + "_seconds": value
                    for key, value in aggregate.histogram.percentiles().items()
                }
            )
            result[path] = stats
        return result

    def to_dict(self) -> dict:
        """Plain-data dump: aggregates plus the (capped) raw span list."""
        return {
            "aggregates": self.aggregates(),
            "spans": [span.as_dict() for span in self._spans],
            "dropped_spans": self.dropped_spans,
        }


@contextmanager
def _null_span() -> Iterator[None]:
    yield None


def _zero_clock() -> float:
    """Picklable stand-in clock for the null tracer."""
    return 0.0


class NullTracer(Tracer):
    """The disabled tracer: no clock reads, no span objects, no state."""

    enabled = False

    def __init__(self) -> None:
        super().__init__(clock=_zero_clock, max_spans=0)

    def span(self, name: str):  # type: ignore[override]
        return _null_span()

    def to_dict(self) -> dict:
        return {"aggregates": {}, "spans": [], "dropped_spans": 0}


#: Process-wide shared no-op tracer.
NULL_TRACER = NullTracer()


def as_tracer(tracer: Optional[Tracer]) -> Tracer:
    """Normalise an optional ``tracer=`` argument: ``None`` -> no-op."""
    return NULL_TRACER if tracer is None else tracer
