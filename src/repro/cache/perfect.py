"""The paper's perfect popularity cache (assumption 2, Section II-B).

"The front-end cache can always cache the most popular items.  Queries
for these items could always hit the cache while other items always
miss."  We realise this as a static cache pinned to the top-``c`` keys
of a known popularity ranking — the oracle the analysis assumes, and the
yardstick the real policies are measured against.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..exceptions import CacheError
from ..scenario.registry import register_component
from .base import Cache

__all__ = ["PerfectCache"]


@register_component("cache", "perfect")
class PerfectCache(Cache):
    """Static cache holding a fixed set of (the most popular) keys.

    By the package convention keys are numbered in non-increasing
    popularity, so the default construction pins keys ``0 .. c-1``;
    :meth:`from_distribution` pins the true top-``c`` of an arbitrary
    probability vector instead.
    """

    POLICY = "perfect"

    def __init__(self, capacity: int, pinned: Sequence[int] = None) -> None:
        super().__init__(capacity)
        if pinned is None:
            pinned = range(capacity)
        pinned = list(pinned)
        if len(set(pinned)) != len(pinned):
            raise CacheError("pinned keys must be distinct")
        if len(pinned) > capacity:
            raise CacheError(
                f"cannot pin {len(pinned)} keys into capacity {capacity}"
            )
        self._pinned = frozenset(int(k) for k in pinned)

    @classmethod
    def from_distribution(cls, probs: np.ndarray, capacity: int) -> "PerfectCache":
        """Pin the ``capacity`` highest-probability keys of ``probs``.

        Ties are broken by key id (lowest first), matching the paper's
        convention that earlier keys are at least as popular.
        """
        probs = np.asarray(probs, dtype=float)
        if probs.ndim != 1:
            raise CacheError("probs must be a 1-D probability vector")
        if capacity >= probs.size:
            return cls(capacity, pinned=range(probs.size))
        # stable sort on -probs keeps lowest key id first among ties
        top = np.argsort(-probs, kind="stable")[:capacity]
        return cls(capacity, pinned=top.tolist())

    @property
    def pinned(self) -> frozenset:
        """The immutable resident set."""
        return self._pinned

    def __len__(self) -> int:
        return len(self._pinned)

    def keys(self) -> Iterable[int]:
        return iter(self._pinned)

    def access_many(self, keys: np.ndarray) -> np.ndarray:
        """:meth:`access` per key as one vectorized membership test:
        the resident set never changes, so only the counters move."""
        hit_mask = np.isin(keys, np.fromiter(self._pinned, dtype=np.int64))
        hits = int(hit_mask.sum())
        self.stats.hits += hits
        self.stats.misses += keys.size - hits
        return hit_mask

    def _contains(self, key: int) -> bool:
        return key in self._pinned

    def _on_hit(self, key: int) -> None:
        pass  # static: nothing to update

    def _admit(self, key: int) -> None:
        pass  # static: misses never change the resident set
