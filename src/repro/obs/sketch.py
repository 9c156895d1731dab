"""Space-saving heavy-hitter sketch: the attribution engine's counters."""

from __future__ import annotations

import heapq
from typing import Dict, List, Tuple

__all__ = ["SpaceSaving"]


class SpaceSaving:
    """Metwally-style space-saving heavy-hitter sketch.

    Tracks at most ``capacity`` counters; when a new item arrives with
    every counter occupied, the smallest counter is handed over to the
    newcomer (its old count becomes the newcomer's error bound).  Any
    item whose true frequency exceeds ``stream / capacity`` is
    guaranteed to be present, and every reported count overestimates the
    truth by at most the reported ``error``.

    The state is a pure function of the offer sequence: evictions break
    count ties on the smallest item, so the sketch inherits the
    serial-equals-parallel guarantee whenever offers arrive in a
    deterministic order (the attribution engine feeds sampled keys in
    simulated-time order and merges trials in trial order).

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
