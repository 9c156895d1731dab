"""Least-recently-used replacement."""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, Optional

import numpy as np

from ..scenario.registry import register_component
from .base import EvictingCache

__all__ = ["LRUCache"]


@register_component("cache", "lru")
class LRUCache(EvictingCache):
    """Classic LRU over an :class:`~collections.OrderedDict`.

    Hits move the key to the most-recent end; the victim is the
    least-recent end.  All operations are O(1).

    LRU is the policy most easily defeated by the paper's adversary: a
    uniform scan over ``x > c`` keys evicts every key before its next
    reuse, driving the hit rate to ~``c/x`` — see the cache ablation
    bench.
    """

    POLICY = "lru"

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        self._entries: "OrderedDict[int, None]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def access_many(self, keys: np.ndarray) -> np.ndarray:
        """:meth:`access` per key in one loop over the ``OrderedDict``.

        Every miss inserts, and evicts only when the cache is full, so the
        counters follow from the hit count and the size change.
        """
        if self._capacity == 0:
            return super().access_many(keys)
        entries = self._entries
        move, evict = entries.move_to_end, entries.popitem
        capacity = self._capacity
        size = start = len(entries)
        out = []
        put = out.append
        for key in keys.tolist():
            if key in entries:
                move(key)
                put(True)
            else:
                if size < capacity:
                    size += 1
                else:
                    evict(False)
                entries[key] = None
                put(False)
        mask = np.array(out, dtype=bool)
        hits = int(mask.sum())
        misses = len(out) - hits
        stats = self.stats
        stats.hits += hits
        stats.misses += misses
        stats.insertions += misses
        stats.evictions += misses - (size - start)
        return mask

    def keys(self) -> Iterable[int]:
        return iter(self._entries)

    def _contains(self, key: int) -> bool:
        return key in self._entries

    def _on_hit(self, key: int) -> None:
        self._entries.move_to_end(key)

    def _select_victim(self) -> Optional[int]:
        return next(iter(self._entries), None)

    def _remove(self, key: int) -> None:
        del self._entries[key]

    def _insert(self, key: int) -> None:
        self._entries[key] = None
