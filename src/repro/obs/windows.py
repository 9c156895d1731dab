"""Simulated-clock sliding windows: per-window traffic accumulators.

The online monitor (:mod:`repro.obs.monitor`) chops a request stream
into fixed-width windows keyed **only by simulated time** — never by
wall clock — so every window-derived statistic is bit-identical across
hosts, runs and worker counts.  Two pieces live here:

- :class:`StreamingEntropy` — an O(1)-per-update port of the batch
  flatness score in ``tests/detection_oracle.py``.  It maintains the
  identity ``H = ln(total) - (1/total) * sum_i c_i ln c_i``
  incrementally, so the streamed normalised entropy equals the batch
  ``profile_counts`` value exactly (up to float associativity) — the
  parity the contract tests pin down.
- :class:`WindowAccumulator` — one window's worth of counters: request
  and hit totals, per-node backend arrivals, and the entropy state.

Windows are *tumbling* (aligned to ``floor(t / width)``); the monitor
closes a window the first time it sees an event past the boundary, so a
stream processed in simulated-time order closes windows in order.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

import numpy as np

__all__ = ["StreamingEntropy", "WindowAccumulator"]


class StreamingEntropy:
    """Streaming normalised key-frequency entropy (the flatness score).

    Mirrors the batch oracle's ``profile_counts``:

    - ``normalized_entropy`` is ``H / ln(distinct)`` (0 when fewer than
      two distinct keys);
    - ``top_key_share`` is the most frequent key's share of the stream.

    Each :meth:`update` is O(1): when a key's count moves ``c -> c + 1``
    the tracked ``sum_i c_i ln c_i`` changes by exactly
    ``(c+1) ln(c+1) - c ln c``.
    """

    __slots__ = ("_counts", "_total", "_sum_clogc", "_max_count")

    def __init__(self) -> None:
        self._counts: Dict[int, int] = {}
        self._total = 0
        self._sum_clogc = 0.0
        self._max_count = 0

    @property
    def total(self) -> int:
        """Number of observations so far."""
        return self._total

    @property
    def distinct(self) -> int:
        """Number of distinct keys seen."""
        return len(self._counts)

    @property
    def top_key_share(self) -> float:
        """Share of the stream taken by the most frequent key."""
        if self._total == 0:
            return 0.0
        return self._max_count / self._total

    def update(self, key: int) -> None:
        """Record one observation of ``key``."""
        count = self._counts.get(key, 0)
        new = count + 1
        self._counts[key] = new
        if count:
            self._sum_clogc += new * math.log(new) - count * math.log(count)
        # c = 0 -> 1 contributes 1 * ln 1 = 0.
        self._total += 1
        if new > self._max_count:
            self._max_count = new

    @property
    def entropy(self) -> float:
        """Shannon entropy (nats) of the observed frequencies."""
        if self._total == 0:
            return 0.0
        return math.log(self._total) - self._sum_clogc / self._total

    @property
    def normalized_entropy(self) -> float:
        """``H / ln(distinct)`` — 1.0 is perfectly flat (Theorem-1-like).

        Matches the batch score's convention: 0.0 with fewer than two
        distinct keys.
        """
        distinct = len(self._counts)
        if distinct <= 1:
            return 0.0
        return self.entropy / math.log(distinct)


class WindowAccumulator:
    """One simulated-time window's running counters.

    Parameters
    ----------
    index:
        Window index ``floor(t / width)``.
    width:
        Window width in simulated seconds.
    n_nodes:
        Back-end size; per-node arrival counts are kept as a dense
        vector so the max/argmax/active statistics are exact.
    """

    __slots__ = ("index", "width", "requests", "hits", "backend",
                 "node_counts", "entropy", "unavailable", "layer_hits")

    def __init__(self, index: int, width: float, n_nodes: int) -> None:
        self.index = index
        self.width = width
        self.requests = 0
        self.hits = 0
        self.backend = 0
        self.node_counts = np.zeros(n_nodes, dtype=np.int64)
        self.entropy = StreamingEntropy()
        # Chaos-only counter (repro.chaos): requests whose every replica
        # was down.  Deliberately NOT part of to_snapshot() — the monitor
        # appends it for chaos runs only, keeping chaos-off snapshots
        # byte-identical to the pre-chaos schema.
        self.unavailable = 0
        # Hierarchy-only counters (repro.cache.tree): hits served per
        # cache layer.  Like ``unavailable``, NOT part of to_snapshot()
        # — the monitor appends them only when a run declares layers,
        # keeping flat-cache snapshots byte-identical.
        self.layer_hits: Dict[int, int] = {}

    @property
    def t_start(self) -> float:
        """Window start (simulated seconds)."""
        return self.index * self.width

    @property
    def t_end(self) -> float:
        """Window end boundary (simulated seconds)."""
        return (self.index + 1) * self.width

    def record(self, key: int, node: Optional[int]) -> None:
        """Record one request; ``node`` is ``None`` for cache hits."""
        self.requests += 1
        self.entropy.update(key)
        if node is None:
            self.hits += 1
        else:
            self.backend += 1
            self.node_counts[node] += 1

    def record_layer(self, layer: int) -> None:
        """Attribute the window's latest cache hit to a hierarchy layer."""
        self.layer_hits[layer] = self.layer_hits.get(layer, 0) + 1

    def to_snapshot(self, trial: int, t_end: Optional[float] = None) -> dict:
        """Plain-data window snapshot (JSON-able, deterministic).

        ``t_end`` overrides the nominal boundary for the final partial
        window (the run's actual duration).
        """
        end = self.t_end if t_end is None else min(t_end, self.t_end)
        seconds = max(end - self.t_start, 0.0)
        node_max = int(self.node_counts.max()) if self.node_counts.size else 0
        node_max_id = int(self.node_counts.argmax()) if node_max else -1
        active = int((self.node_counts > 0).sum())
        return {
            "type": "window",
            "clock": "simulated",
            "trial": trial,
            "index": self.index,
            "t_start": self.t_start,
            "t_end": end,
            "seconds": seconds,
            "requests": self.requests,
            "hits": self.hits,
            "backend": self.backend,
            "hit_ratio": self.hits / self.requests if self.requests else 0.0,
            "distinct_keys": self.entropy.distinct,
            "normalized_entropy": self.entropy.normalized_entropy,
            "top_key_share": self.entropy.top_key_share,
            "node_max": node_max,
            "node_max_id": node_max_id,
            "nodes_active": active,
        }
