"""Differential test: SpaceSaving's heap eviction vs the linear ``min`` scan.

``SpaceSaving`` picks its victim, the minimum ``(count, item)``, from a
lazily refreshed heap.  The oracle below is the scan it replaced; both
must leave the same counters after any offer stream.
"""

import numpy as np
import pytest

from repro.obs.sketch import SpaceSaving


class MinScanSpaceSaving:
    """The original O(k) eviction: scan every counter with ``min``."""

    def __init__(self, capacity):
        self.capacity = capacity
        self._counts = {}
        self._errors = {}

    def offer(self, item, count=1):
        counts = self._counts
        if item in counts:
            counts[item] += count
            return
        if len(counts) < self.capacity:
            counts[item] = count
            self._errors[item] = 0
            return
        victim = min(counts, key=lambda k: (counts[k], k))
        floor = counts.pop(victim)
        del self._errors[victim]
        counts[item] = floor + count
        self._errors[item] = floor

    def items(self):
        return sorted(
            ((item, count, self._errors[item]) for item, count in self._counts.items()),
            key=lambda row: (-row[1], row[0]),
        )


@pytest.mark.parametrize("stream", range(320))
def test_heap_eviction_matches_min_scan(stream):
    rng = np.random.default_rng(stream)
    capacity = int(rng.integers(1, 24))
    keyspace = int(rng.integers(2, 120))
    length = int(rng.integers(0, 600))
    # Skewed keys make both hot counters and churn; weights vary per stream.
    keys = (rng.zipf(1.0 + rng.random() * 1.5, size=length) - 1) % keyspace
    max_weight = int(rng.choice([1, 1, 3, 50]))
    weights = rng.integers(1, max_weight + 1, size=length)
    heap, scan = SpaceSaving(capacity), MinScanSpaceSaving(capacity)
    for key, weight in zip(keys.tolist(), weights.tolist()):
        heap.offer(key, weight)
        scan.offer(key, weight)
        assert len(heap) == len(scan._counts)
    assert heap.items() == scan.items()


def test_eviction_breaks_count_ties_on_the_smaller_item():
    sketch = SpaceSaving(3)
    for item in (5, 2, 9):
        sketch.offer(item)
    sketch.offer(5)  # 5 -> 2; 2 and 9 tie at 1, so 2 goes
    sketch.offer(7)
    assert sketch.items() == [(5, 2, 0), (7, 2, 1), (9, 1, 0)]
    sketch.offer(1)  # 9 is the only counter at 1
    assert sketch.items() == [(1, 2, 1), (5, 2, 0), (7, 2, 1)]
