"""Zero-dependency metrics registry: counters, gauges, histograms.

Design constraints (the contract tests pin all of these down):

- **Deterministic**: metric values never depend on wall-clock time,
  scheduling or worker count.  Anything time-based belongs in
  :mod:`repro.obs.spans`, which is explicitly excluded from the
  cross-worker determinism guarantee.
- **Mergeable**: per-trial registries produced inside worker processes
  merge into a campaign registry.  Counter and histogram merges are
  exact sums, so merging is associative and commutative (up to floating
  point, and exactly so for integer-valued increments); gauges merge by
  elementwise maximum, which is also associative and commutative.
- **Inert when disabled**: :data:`NULL_REGISTRY` hands out shared no-op
  singletons, allocates nothing per call, and snapshots empty — so an
  instrumented code path with the null registry behaves (and allocates)
  exactly like an uninstrumented one.
- **Picklable**: registries are plain-data objects (no locks, no file
  handles) so they can ride along in a run context across process
  boundaries.

Histogram buckets are fixed log-scale (powers of two), so two
histograms of the same metric always share bounds and merge exactly.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

import numpy as np

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "as_registry",
    "DEFAULT_BUCKETS",
]

#: Label set as stored internally: sorted ``(key, value)`` string pairs.
LabelItems = Tuple[Tuple[str, str], ...]

#: Metric identity inside a registry.
MetricKey = Tuple[str, LabelItems]

#: Fixed log-scale bucket upper bounds: powers of two from ``2**-20``
#: (~1 microsecond when observing seconds) to ``2**30`` (~1e9), plus an
#: implicit +Inf overflow bucket.  Fixed bounds are what make histogram
#: merges exact.
DEFAULT_BUCKETS: Tuple[float, ...] = tuple(2.0 ** e for e in range(-20, 31))


def _labels_key(labels: Mapping[str, object]) -> LabelItems:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically non-decreasing sum.

    Increments must be non-negative; fractional increments are allowed
    (rates and probability mass are first-class citizens here).
    """

    __slots__ = ("name", "labels", "_value")

    def __init__(self, name: str, labels: LabelItems = ()) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0

    @property
    def value(self) -> float:
        """Current total."""
        return self._value

    def inc(self, amount: Union[int, float] = 1) -> None:
        """Add ``amount`` (must be >= 0) to the total."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (got {amount})")
        self._value += amount


class Gauge:
    """A point-in-time value that can move in either direction.

    Merging two gauges keeps the elementwise maximum — the only of the
    obvious choices ("last write" is order-dependent) that is both
    associative and commutative, which the parallel merge requires.
    """

    __slots__ = ("name", "labels", "_value")

    def __init__(self, name: str, labels: LabelItems = ()) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0

    @property
    def value(self) -> float:
        """Current level."""
        return self._value

    def set(self, value: Union[int, float]) -> None:
        """Replace the current level."""
        self._value = float(value)

    def inc(self, amount: Union[int, float] = 1) -> None:
        """Raise the level by ``amount``."""
        self._value += amount

    def dec(self, amount: Union[int, float] = 1) -> None:
        """Lower the level by ``amount``."""
        self._value -= amount


class Histogram:
    """Fixed-bucket log-scale histogram with quantile estimates.

    Bucket ``i`` counts observations ``v`` with
    ``bounds[i-1] < v <= bounds[i]`` (the Prometheus ``le`` convention);
    one extra overflow bucket catches everything above the last bound,
    and values at or below the first bound land in bucket 0.

    Quantiles are nearest-rank over the bucketed distribution with
    linear interpolation inside the bucket: the estimate always lies in
    the same bucket as the exact order statistic of the observed
    sequence, so it is within one bucket width (a factor of two for the
    default bounds) of the true quantile.
    """

    __slots__ = ("name", "labels", "bounds", "counts", "_sum", "_count", "_min", "_max")

    def __init__(
        self,
        name: str,
        labels: LabelItems = (),
        bounds: Optional[Iterable[float]] = None,
    ) -> None:
        self.name = name
        self.labels = labels
        resolved = DEFAULT_BUCKETS if bounds is None else tuple(float(b) for b in bounds)
        if not resolved:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(resolved, resolved[1:])):
            raise ValueError("bucket bounds must be strictly increasing")
        self.bounds = resolved
        self.counts = [0] * (len(resolved) + 1)  # +1 overflow (+Inf)
        self._sum = 0.0
        self._count = 0
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    @property
    def count(self) -> int:
        """Number of observations."""
        return self._count

    @property
    def sum(self) -> float:
        """Sum of all observed values."""
        return self._sum

    @property
    def min(self) -> Optional[float]:
        """Smallest observation (``None`` before any)."""
        return self._min

    @property
    def max(self) -> Optional[float]:
        """Largest observation (``None`` before any)."""
        return self._max

    def observe(self, value: Union[int, float]) -> None:
        """Record one observation."""
        value = float(value)
        self.counts[bisect_left(self.bounds, value)] += 1
        self._sum += value
        self._count += 1
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value

    def observe_many(self, values: Iterable[float]) -> None:
        """Record a batch of observations: :meth:`observe` per value, in order.

        Vectorized with the same results: buckets from ``searchsorted``
        (``side="left"`` is ``bisect_left``) and ``bincount``, the sum by a
        sequential ``add.accumulate`` seeded with the running total, and
        min/max at the first extreme value, as the strict comparisons of
        :meth:`observe` keep it.  A batch holding NaN, which bisection and
        the NumPy reductions order differently, takes the per-value loop.
        """
        if not isinstance(values, np.ndarray):
            values = list(values)
        batch = np.asarray(values, dtype=float)
        if batch.size == 0:
            return
        if np.isnan(batch).any():
            for value in batch.tolist():
                self.observe(value)
            return
        added = np.bincount(
            np.searchsorted(self.bounds, batch, side="left"),
            minlength=len(self.counts),
        )
        counts = self.counts
        for bucket, n in enumerate(added.tolist()):
            counts[bucket] += n
        with np.errstate(over="ignore", invalid="ignore"):
            total = np.add.accumulate(np.concatenate(([self._sum], batch)))
        self._sum = float(total[-1])
        self._count += int(batch.size)
        low = float(batch[batch.argmin()])
        high = float(batch[batch.argmax()])
        if self._min is None or low < self._min:
            self._min = low
        if self._max is None or high > self._max:
            self._max = high

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (``0 <= q <= 1``) from buckets.

        Edge contract (exact, not estimated):

        - **empty histogram** -> ``nan`` (quantiles of nothing are
          undefined; callers must NaN-check, the exporters render it as
          ``null``);
        - **single observation** -> that observation, for every ``q``;
        - ``q == 0`` -> the exact observed minimum, ``q == 1`` -> the
          exact observed maximum.

        Otherwise the estimate is the nearest-rank order statistic's
        bucket, linearly interpolated by rank within the bucket and
        clamped to the observed ``[min, max]`` range (buckets are
        coarser than the data; the true order statistic can never fall
        outside the observed range).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self._count == 0:
            return float("nan")
        # One observation: every quantile is that value.  Skipping the
        # bucket walk also avoids reporting a bucket boundary for data
        # the histogram knows exactly.
        if self._count == 1:
            return self._min
        if q == 0.0:
            return self._min
        if q == 1.0:
            return self._max
        # nearest-rank: the ceil(q * count)-th smallest observation
        rank = max(1, math.ceil(q * self._count - 1e-9))
        cumulative = 0
        for idx, bucket_count in enumerate(self.counts):
            previous = cumulative
            cumulative += bucket_count
            if cumulative >= rank:
                lo = self.bounds[idx - 1] if idx > 0 else self._min
                hi = self.bounds[idx] if idx < len(self.bounds) else self._max
                if bucket_count > 1:
                    fraction = (rank - previous - 1) / (bucket_count - 1)
                else:
                    fraction = 1.0
                estimate = lo + (hi - lo) * fraction
                # Clamp to the observed range: buckets are coarser than
                # the data, and the true order statistic can never be
                # outside [min, max].
                return min(max(estimate, self._min), self._max)
        return self._max  # pragma: no cover - cumulative == count >= rank above

    def percentiles(self) -> Dict[str, float]:
        """The conventional reporting trio (p50 / p95 / p99)."""
        return {
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


class MetricsRegistry:
    """Names and owns every metric of one measurement scope.

    ``counter`` / ``gauge`` / ``histogram`` get-or-create by
    ``(name, labels)``; asking for the same name with a different metric
    kind is an error (it would corrupt exports).
    """

    #: Real registries record; the null registry reports ``False`` so
    #: hot paths can skip preparation work entirely.
    enabled = True

    def __init__(self) -> None:
        self._counters: Dict[MetricKey, Counter] = {}
        self._gauges: Dict[MetricKey, Gauge] = {}
        self._histograms: Dict[MetricKey, Histogram] = {}

    # -- construction ------------------------------------------------------

    def _claim(self, name: str, kind: str) -> None:
        owners = {
            "counter": self._counters,
            "gauge": self._gauges,
            "histogram": self._histograms,
        }
        for other_kind, table in owners.items():
            if other_kind != kind and any(key[0] == name for key in table):
                raise ValueError(
                    f"metric {name!r} is already registered as a {other_kind}"
                )

    def counter(self, name: str, **labels: object) -> Counter:
        """Get or create the counter ``name{labels}``."""
        key = (name, _labels_key(labels))
        metric = self._counters.get(key)
        if metric is None:
            self._claim(name, "counter")
            metric = self._counters[key] = Counter(name, key[1])
        return metric

    def gauge(self, name: str, **labels: object) -> Gauge:
        """Get or create the gauge ``name{labels}``."""
        key = (name, _labels_key(labels))
        metric = self._gauges.get(key)
        if metric is None:
            self._claim(name, "gauge")
            metric = self._gauges[key] = Gauge(name, key[1])
        return metric

    def histogram(
        self,
        name: str,
        bounds: Optional[Iterable[float]] = None,
        **labels: object,
    ) -> Histogram:
        """Get or create the histogram ``name{labels}``.

        ``bounds`` applies only on first creation; all series of one
        histogram family must share bounds for merges to stay exact.
        """
        key = (name, _labels_key(labels))
        metric = self._histograms.get(key)
        if metric is None:
            self._claim(name, "histogram")
            metric = self._histograms[key] = Histogram(name, key[1], bounds=bounds)
        return metric

    # -- introspection -----------------------------------------------------

    def counters(self) -> List[Counter]:
        """All counters, sorted by ``(name, labels)``."""
        return [self._counters[k] for k in sorted(self._counters)]

    def gauges(self) -> List[Gauge]:
        """All gauges, sorted by ``(name, labels)``."""
        return [self._gauges[k] for k in sorted(self._gauges)]

    def histograms(self) -> List[Histogram]:
        """All histograms, sorted by ``(name, labels)``."""
        return [self._histograms[k] for k in sorted(self._histograms)]

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    # -- snapshot / merge --------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-data (JSON- and pickle-friendly) dump of every metric."""
        return {
            "counters": [
                {"name": c.name, "labels": dict(c.labels), "value": c.value}
                for c in self.counters()
            ],
            "gauges": [
                {"name": g.name, "labels": dict(g.labels), "value": g.value}
                for g in self.gauges()
            ],
            "histograms": [
                {
                    "name": h.name,
                    "labels": dict(h.labels),
                    "bounds": list(h.bounds),
                    "counts": list(h.counts),
                    "sum": h.sum,
                    "count": h.count,
                    "min": h.min,
                    "max": h.max,
                }
                for h in self.histograms()
            ],
        }

    def merge_snapshot(self, snapshot: Mapping[str, list]) -> None:
        """Fold a :meth:`snapshot` dict into this registry (exact sums)."""
        for record in snapshot.get("counters", ()):
            self.counter(record["name"], **record["labels"]).inc(record["value"])
        for record in snapshot.get("gauges", ()):
            existed = (record["name"], _labels_key(record["labels"])) in self._gauges
            gauge = self.gauge(record["name"], **record["labels"])
            # Elementwise max over gauges actually present on both sides;
            # a gauge only one side has copies over verbatim (the implicit
            # 0.0 of a fresh gauge is absence, not a measurement).
            gauge.set(max(gauge.value, record["value"]) if existed else record["value"])
        for record in snapshot.get("histograms", ()):
            histogram = self.histogram(
                record["name"], bounds=record["bounds"], **record["labels"]
            )
            if tuple(record["bounds"]) != histogram.bounds:
                raise ValueError(
                    f"histogram {record['name']!r} bucket bounds differ; "
                    "cannot merge exactly"
                )
            for idx, count in enumerate(record["counts"]):
                histogram.counts[idx] += count
            histogram._sum += record["sum"]
            histogram._count += record["count"]
            for extreme in ("min", "max"):
                value = record[extreme]
                if value is None:
                    continue
                current = getattr(histogram, "_" + extreme)
                if current is None:
                    setattr(histogram, "_" + extreme, value)
                elif extreme == "min":
                    histogram._min = min(current, value)
                else:
                    histogram._max = max(current, value)

    def merge(self, other: Union["MetricsRegistry", Mapping[str, list]]) -> None:
        """Fold another registry (or a snapshot of one) into this one."""
        if isinstance(other, MetricsRegistry):
            other = other.snapshot()
        self.merge_snapshot(other)


class _NullMetric:
    """Shared no-op stand-in for every metric kind."""

    __slots__ = ()
    name = "null"
    labels: LabelItems = ()
    value = 0.0
    sum = 0.0
    count = 0
    min = None
    max = None
    bounds: Tuple[float, ...] = ()
    counts: List[int] = []

    def inc(self, amount: Union[int, float] = 1) -> None:
        pass

    def dec(self, amount: Union[int, float] = 1) -> None:
        pass

    def set(self, value: Union[int, float]) -> None:
        pass

    def observe(self, value: Union[int, float]) -> None:
        pass

    def observe_many(self, values: Iterable[float]) -> None:
        pass

    def quantile(self, q: float) -> float:
        return float("nan")

    def percentiles(self) -> Dict[str, float]:
        nan = float("nan")
        return {"p50": nan, "p95": nan, "p99": nan}


_NULL_METRIC = _NullMetric()


class NullRegistry(MetricsRegistry):
    """The disabled-instrumentation registry: records nothing, ever.

    Every accessor returns one shared inert metric object, so
    instrumented code paths allocate nothing and mutate nothing when
    observability is off — the overhead guarantee documented in
    ``docs/OBSERVABILITY.md`` rests on this class.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__()

    def counter(self, name: str, **labels: object) -> Counter:
        return _NULL_METRIC  # type: ignore[return-value]

    def gauge(self, name: str, **labels: object) -> Gauge:
        return _NULL_METRIC  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        bounds: Optional[Iterable[float]] = None,
        **labels: object,
    ) -> Histogram:
        return _NULL_METRIC  # type: ignore[return-value]

    def merge_snapshot(self, snapshot: Mapping[str, list]) -> None:
        pass

    def snapshot(self) -> dict:
        return {"counters": [], "gauges": [], "histograms": []}


#: Process-wide shared no-op registry; use :func:`as_registry` to
#: normalise an optional ``metrics`` argument onto it.
NULL_REGISTRY = NullRegistry()


def as_registry(metrics: Optional[MetricsRegistry]) -> MetricsRegistry:
    """Normalise an optional ``metrics=`` argument: ``None`` -> no-op."""
    return NULL_REGISTRY if metrics is None else metrics
