"""Cache interface and shared accounting.

Two invariants every implementation must uphold (and the property tests
enforce):

1. the cache never holds more than ``capacity`` items;
2. ``access(key)`` reports a hit iff ``key`` was resident when called.

A zero-capacity cache is legal and simply misses everything — useful as
the "no cache" baseline in experiments.

The event kernel reaches a flat cache through one seam,
:meth:`Cache.access_many`, which equals one :meth:`~Cache.access` per key
in order; ``tests/test_cache_access_many.py`` pins that contract for
every registered policy.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from ..exceptions import CacheError

__all__ = ["CacheStats", "Cache", "EvictingCache"]


@dataclass
class CacheStats:
    """Running counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0

    @property
    def accesses(self) -> int:
        """Total lookups observed."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups that hit (0.0 before any access)."""
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses

    def reset(self) -> None:
        """Zero all counters."""
        self.hits = self.misses = self.insertions = self.evictions = 0


class Cache(ABC):
    """A front-end cache: look up a key, admit it on a miss.

    Subclasses implement residency (:meth:`_contains`), the hit-path
    bookkeeping (:meth:`_on_hit`) and the miss-path admission
    (:meth:`_admit`); this base class owns the statistics so hit-rate
    accounting is uniform across policies.

    Observability: :meth:`publish_metrics` exports the running counters
    into a :class:`repro.obs.MetricsRegistry` labelled by
    :attr:`policy_name`.  The hot :meth:`access` path is never
    instrumented directly — counters are published from the
    :class:`CacheStats` totals, which keeps the lookup loop identical
    whether observability is on or off.

    Batching: :meth:`access_many` is the event kernel's one seam into a
    flat cache.  The base body calls :meth:`access` per key; a policy may
    override it with a faster body that leaves the same hit mask,
    :class:`CacheStats` counters and resident order.  A subclass that
    overrides any step of the per-key path (:data:`_ACCESS_PATH`) but
    not ``access_many`` gets the per-key body back, so it still sees
    every request.
    """

    #: Short policy label used in metrics (``cache_hits_total{policy=}``)
    #: and reports; subclasses override, the default is derived from the
    #: class name.
    POLICY: Optional[str] = None

    #: The per-key path a batched :meth:`access_many` body stands in for.
    _ACCESS_PATH = (
        "access", "_contains", "_on_hit", "_admit",
        "_select_victim", "_remove", "_insert", "__len__",
    )

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        own = vars(cls)
        if "access_many" not in own and any(name in own for name in cls._ACCESS_PATH):
            cls.access_many = Cache.access_many

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise CacheError(f"capacity must be non-negative, got {capacity}")
        self._capacity = capacity
        self.stats = CacheStats()
        # Watermark of already-published totals, so repeated publishes
        # emit exact deltas instead of double counting.
        self._published = (0, 0, 0, 0)

    @property
    def policy_name(self) -> str:
        """Label identifying this policy in metrics and reports."""
        if self.POLICY is not None:
            return self.POLICY
        name = type(self).__name__
        if name.endswith("Cache"):
            name = name[: -len("Cache")]
        return name.lower()

    def publish_metrics(self, metrics) -> None:
        """Export hit/miss/insertion/eviction counters to a registry.

        Emits only the *delta* since the previous publish (idempotent
        when nothing changed), plus point-in-time size/capacity gauges.
        ``metrics`` may be ``None`` (no-op) or any
        :class:`repro.obs.MetricsRegistry`.
        """
        from ..obs.metrics import as_registry

        registry = as_registry(metrics)
        stats = self.stats
        current = (stats.hits, stats.misses, stats.insertions, stats.evictions)
        names = (
            "cache_hits_total",
            "cache_misses_total",
            "cache_insertions_total",
            "cache_evictions_total",
        )
        policy = self.policy_name
        for name, now, seen in zip(names, current, self._published):
            # A CacheStats.reset() between publishes rewinds the totals;
            # publish the post-reset totals from scratch in that case.
            delta = now - seen if now >= seen else now
            if delta:
                registry.counter(name, policy=policy).inc(delta)
        self._published = current
        registry.gauge("cache_size", policy=policy).set(len(self))
        registry.gauge("cache_capacity", policy=policy).set(self._capacity)

    @property
    def capacity(self) -> int:
        """Maximum number of resident items."""
        return self._capacity

    def access(self, key: int) -> bool:
        """Look up ``key``; admit it on a miss.  Returns True on a hit."""
        if self._capacity == 0:
            self.stats.misses += 1
            return False
        if self._contains(key):
            self.stats.hits += 1
            self._on_hit(key)
            return True
        self.stats.misses += 1
        self._admit(key)
        return False

    def access_many(self, keys: np.ndarray) -> np.ndarray:
        """Hit mask of :meth:`access` over ``keys``, one key at a time, in order."""
        return np.fromiter(map(self.access, keys.tolist()), dtype=bool, count=len(keys))

    def __contains__(self, key: int) -> bool:
        return self._capacity > 0 and self._contains(key)

    @abstractmethod
    def __len__(self) -> int:
        """Number of items currently resident."""

    @abstractmethod
    def keys(self) -> Iterable[int]:
        """Currently resident keys (order unspecified)."""

    @abstractmethod
    def _contains(self, key: int) -> bool:
        """Residency check without statistics side effects."""

    @abstractmethod
    def _on_hit(self, key: int) -> None:
        """Policy bookkeeping for a hit (recency/frequency updates)."""

    @abstractmethod
    def _admit(self, key: int) -> None:
        """Handle a missed key: usually insert, evicting if full."""


class EvictingCache(Cache):
    """A cache whose miss path is insert-with-eviction.

    Factors the common pattern so concrete policies only provide the
    victim choice (:meth:`_select_victim`) and the insert/touch
    bookkeeping.  Policies with more exotic miss paths (ghost lists,
    admission filters) extend :class:`Cache` directly.
    """

    def _admit(self, key: int) -> None:
        if len(self) >= self._capacity:
            victim = self._select_victim()
            if victim is not None:
                self._remove(victim)
                self.stats.evictions += 1
        self._insert(key)
        self.stats.insertions += 1

    @abstractmethod
    def _select_victim(self) -> Optional[int]:
        """Choose the key to evict (cache is full when this is called)."""

    @abstractmethod
    def _remove(self, key: int) -> None:
        """Remove ``key`` from the cache."""

    @abstractmethod
    def _insert(self, key: int) -> None:
        """Insert a non-resident ``key`` (space is available)."""

    def peek_victim(self) -> Optional[int]:
        """Key that would be evicted next, without evicting it.

        Used by admission filters to compare the candidate against the
        incumbent victim.
        """
        if len(self) == 0:
            return None
        return self._select_victim()
