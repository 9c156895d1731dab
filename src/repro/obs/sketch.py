"""Fixed-size streaming quantile sketch (the P-squared algorithm).

Jain & Chlamtac's P² method (CACM 1985) tracks one quantile of a stream
with five markers — constant memory, no stored samples, and completely
deterministic: the estimate is a pure function of the observation
sequence, so it inherits the repository's serial-equals-parallel
guarantee as long as streams are fed in a deterministic order (the
monitor feeds per-window values in simulated-time order and per-trial
values in trial order).

Accuracy: on the smooth distributions this repository produces (node
load shares, attack gains), the five-marker estimate lands within a few
percent of the exact order statistic once a few dozen observations are
in; ``tests/test_obs_monitor.py`` pins the tolerance.  For exact small
streams (fewer than five observations) the sketch falls back to the
true order statistic of the buffered values.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = ["P2Quantile", "QuantileBank", "SpaceSaving"]


class P2Quantile:
    """Streaming estimate of one quantile ``q`` via the P² algorithm."""

    __slots__ = ("q", "_count", "_heights", "_positions", "_desired", "_rates")

    def __init__(self, q: float) -> None:
        if not 0.0 < q < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {q}")
        self.q = q
        self._count = 0
        self._heights: List[float] = []
        self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
        self._desired = [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0]
        self._rates = [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0]

    @property
    def count(self) -> int:
        """Number of observations consumed."""
        return self._count

    def observe(self, value: float) -> None:
        """Feed one observation into the sketch."""
        value = float(value)
        self._count += 1
        if self._count <= 5:
            self._heights.append(value)
            self._heights.sort()
            return
        heights, positions = self._heights, self._positions
        # Locate the cell and update the extreme markers.
        if value < heights[0]:
            heights[0] = value
            cell = 0
        elif value >= heights[4]:
            heights[4] = value
            cell = 3
        else:
            cell = 0
            while cell < 3 and value >= heights[cell + 1]:
                cell += 1
        for i in range(cell + 1, 5):
            positions[i] += 1.0
        for i in range(5):
            self._desired[i] += self._rates[i]
        # Adjust the three interior markers toward their desired ranks.
        for i in (1, 2, 3):
            delta = self._desired[i] - positions[i]
            if (delta >= 1.0 and positions[i + 1] - positions[i] > 1.0) or (
                delta <= -1.0 and positions[i - 1] - positions[i] < -1.0
            ):
                step = 1.0 if delta >= 1.0 else -1.0
                candidate = self._parabolic(i, step)
                if heights[i - 1] < candidate < heights[i + 1]:
                    heights[i] = candidate
                else:
                    heights[i] = self._linear(i, step)
                positions[i] += step

    def _parabolic(self, i: int, step: float) -> float:
        h, p = self._heights, self._positions
        return h[i] + step / (p[i + 1] - p[i - 1]) * (
            (p[i] - p[i - 1] + step) * (h[i + 1] - h[i]) / (p[i + 1] - p[i])
            + (p[i + 1] - p[i] - step) * (h[i] - h[i - 1]) / (p[i] - p[i - 1])
        )

    def _linear(self, i: int, step: float) -> float:
        h, p = self._heights, self._positions
        j = i + int(step)
        return h[i] + step * (h[j] - h[i]) / (p[j] - p[i])

    def result(self) -> float:
        """Current estimate (``nan`` before any observation).

        With fewer than five observations the exact nearest-rank order
        statistic of the buffered values is returned.
        """
        if self._count == 0:
            return float("nan")
        if self._count < 5:
            rank = max(1, math.ceil(self.q * self._count - 1e-9))
            return self._heights[rank - 1]
        return self._heights[2]


class SpaceSaving:
    """Metwally-style space-saving heavy-hitter sketch.

    Tracks at most ``capacity`` counters; when a new item arrives with
    every counter occupied, the smallest counter is handed over to the
    newcomer (its old count becomes the newcomer's error bound).  Any
    item whose true frequency exceeds ``stream / capacity`` is
    guaranteed to be present, and every reported count overestimates the
    truth by at most the reported ``error``.

    Like the P² sketches, the state is a pure function of the offer
    sequence: evictions break count ties on the smallest item, so the
    sketch inherits the serial-equals-parallel guarantee whenever offers
    arrive in a deterministic order (the attribution engine feeds
    sampled keys in simulated-time order and merges trials in trial
    order).

    The victim, the minimum ``(count, item)``, comes from a heap with one
    ``(count, item)`` entry per counter, in O(log k).  Counts only grow,
    so an entry's count may lag behind its counter; a stale top is
    re-pushed at its current count until the top is fresh, and a fresh
    top is then the true minimum.
    """

    __slots__ = ("capacity", "_counts", "_errors", "_heap")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._counts: Dict[int, int] = {}
        self._errors: Dict[int, int] = {}
        self._heap: List[Tuple[int, int]] = []

    def __len__(self) -> int:
        return len(self._counts)

    def offer(self, item: int, count: int = 1) -> None:
        """Feed ``count`` observations of ``item`` into the sketch."""
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        counts = self._counts
        if item in counts:
            counts[item] += count
            return
        heap = self._heap
        if len(counts) < self.capacity:
            counts[item] = count
            self._errors[item] = 0
            heapq.heappush(heap, (count, item))
            return
        while True:
            stale, victim = heap[0]
            floor = counts[victim]
            if stale == floor:
                break
            heapq.heapreplace(heap, (floor, victim))
        del counts[victim], self._errors[victim]
        counts[item] = floor + count
        self._errors[item] = floor
        heapq.heapreplace(heap, (floor + count, item))

    def items(self) -> List[Tuple[int, int, int]]:
        """``(item, count, error)`` triples, largest count first.

        Ties break on the smaller item so the ranking is deterministic.
        """
        return sorted(
            ((item, count, self._errors[item]) for item, count in self._counts.items()),
            key=lambda row: (-row[1], row[0]),
        )

    def top(self, k: int) -> List[Tuple[int, int, int]]:
        """The ``k`` largest counters (fewer when the stream was short)."""
        return self.items()[:k]


class QuantileBank:
    """A small battery of P² sketches plus exact count/min/max.

    The conventional reporting trio (p50/p95/p99) by default; the whole
    bank stays O(1) memory regardless of stream length.
    """

    __slots__ = ("_sketches", "_count", "_min", "_max", "_sum")

    DEFAULT_QUANTILES: Tuple[float, ...] = (0.5, 0.95, 0.99)

    def __init__(self, quantiles: Optional[Iterable[float]] = None) -> None:
        qs = tuple(quantiles) if quantiles is not None else self.DEFAULT_QUANTILES
        if not qs:
            raise ValueError("need at least one quantile")
        self._sketches = {q: P2Quantile(q) for q in qs}
        self._count = 0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._sum = 0.0

    @property
    def count(self) -> int:
        """Number of observations consumed."""
        return self._count

    @property
    def min(self) -> Optional[float]:
        """Exact smallest observation (``None`` before any)."""
        return self._min

    @property
    def max(self) -> Optional[float]:
        """Exact largest observation (``None`` before any)."""
        return self._max

    @property
    def mean(self) -> float:
        """Exact mean (``nan`` before any observation)."""
        if self._count == 0:
            return float("nan")
        return self._sum / self._count

    def observe(self, value: float) -> None:
        """Feed one observation into every sketch."""
        value = float(value)
        for sketch in self._sketches.values():
            sketch.observe(value)
        self._count += 1
        self._sum += value
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value

    def estimates(self) -> Dict[str, float]:
        """``{"p50": ..., "p95": ...}`` plus count/min/max/mean."""
        out: Dict[str, float] = {
            f"p{round(q * 100):02d}": self._sketches[q].result()
            for q in self._sketches
        }
        out["count"] = self._count
        out["mean"] = self.mean
        out["min"] = float("nan") if self._min is None else self._min
        out["max"] = float("nan") if self._max is None else self._max
        return out
