"""Reference implementation of the load monitor: one event at a time.

This is the per-event loop :meth:`repro.obs.monitor.LoadMonitor.observe`
ran before it became column code.  It stays here, outside the package,
as the oracle the monitor differential suite
(``tests/test_monitor_differential.py``) compares the column code
against: :class:`ReferenceMonitor` is a :class:`LoadMonitor` whose
``observe`` replays the run's :meth:`TrialColumns.event_order` request by
request into :class:`WindowAccumulator` windows, with the O(1)
:class:`StreamingEntropy` flatness score, and must emit the same event
log, run summaries, metrics and ``summary()`` bit for bit.

Semantics the column code has to match (and that this code defines):

- a window opens at a request (served or unavailable) whose
  ``floor(t / width)`` differs from the open window's, and closes the
  open one; node events never open or close a window;
- a window that holds only unavailable requests emits nothing and
  leaves the chaos down-count maximum standing;
- an arrival whose node was found down (``RETRIED``) is skipped; its
  retry counts at the retry's time.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.bounds import distcache_max_load_bound
from repro.obs import LoadMonitor
from repro.obs.columns import RETRIED, UNAVAILABLE, TrialColumns
from repro.obs.monitor import _RuleContext

__all__ = ["ReferenceMonitor", "StreamingEntropy", "WindowAccumulator"]


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


class _Run:
    """One event-driven run's state; lives for one :meth:`ReferenceMonitor.observe`.

    ``chaos`` adds the down-set behind per-window ``effective_d``;
    ``layers`` (a cache tree's shard count per layer) adds per-layer and
    per-shard hit counts for the DistCache bound.
    """

    __slots__ = (
        "trial", "n", "rate", "bound", "acc", "nodes", "requests", "hits",
        "backend", "windows", "alerts", "chaos", "down", "win_max_down",
        "unavailable", "min_effective_d", "layers", "layer_hits",
        "shard_hits", "layer_keys",
    )

    def __init__(
        self,
        trial: int,
        n: int,
        rate: float,
        bound: Optional[float],
        chaos: bool,
        layers: Optional[Tuple[int, ...]],
    ) -> None:
        self.trial, self.n, self.rate, self.bound = trial, n, rate, bound
        self.acc: Optional[WindowAccumulator] = None
        self.nodes = np.zeros(n, dtype=np.int64)
        self.requests = self.hits = self.backend = 0
        self.windows = self.alerts = 0
        self.chaos = chaos
        self.down: Set[int] = set()
        self.win_max_down = 0
        self.unavailable = 0
        self.min_effective_d: Optional[float] = None
        self.layers = layers
        widths = layers or ()
        self.layer_hits = [0] * len(widths)
        self.shard_hits = [[0] * w for w in widths]
        self.layer_keys: List[set] = [set() for _ in widths]

    def gain(self, t: float) -> Optional[float]:
        """Running ``L_max / (R/n)`` at simulated time ``t``."""
        if t <= 0:
            return None
        return float(self.nodes.max()) / t / (self.rate / self.n)


class ReferenceMonitor(LoadMonitor):
    """A :class:`LoadMonitor` that ingests each run one event at a time."""

    def observe(
        self,
        columns: TrialColumns,
        *,
        n: int,
        rate: float,
        chaos: bool = False,
        layers: Optional[Tuple[int, ...]] = None,
        trace: Optional[dict] = None,
    ) -> dict:
        """:meth:`LoadMonitor.observe`, fed one event at a time."""
        bound = self._bound = self._config.bound_for(self._config.x, n=n)
        run = _Run(
            int(columns.trial), int(n), float(rate), bound, bool(chaos),
            tuple(int(w) for w in layers) if layers else None,
        )
        layered = run.layers is not None and columns.layer is not None
        if layered:
            layer_of, shard_of = columns.layer.tolist(), columns.shard.tolist()
        times, keys = columns.time.tolist(), columns.key.tolist()
        outcome = columns.outcome.tolist()
        retry_time, retry_node = columns.retry_time.tolist(), columns.retry_node.tolist()
        retry_key = columns.key[columns.retry_request].tolist()
        event_time, event_node = columns.event_time.tolist(), columns.event_node.tolist()
        event_up = columns.event_up.tolist()
        width = self._config.window
        cls, index = columns.event_order()
        for c, i in zip(cls.tolist(), index.tolist()):
            if c == 0:
                node, up = event_node[i], event_up[i]
                if up:
                    run.down.discard(node)
                else:
                    run.down.add(node)
                    run.win_max_down = max(run.win_max_down, len(run.down))
                self._events.emit({
                    "type": "node-event", "trial": run.trial, "t": event_time[i],
                    "node": node, "up": up, "nodes_down": len(run.down),
                })
                self._metrics.counter("monitor_node_events_total").inc()
                continue
            if c == 1:
                t, key, node = times[i], keys[i], outcome[i]
            else:
                t, key, node = retry_time[i], retry_key[i], retry_node[i]
                node = UNAVAILABLE if node < 0 else node
            if node == RETRIED:
                continue
            # The window covering t, closing the previous one.
            acc = run.acc
            window = int(t // width)
            if acc is None or window != acc.index:
                if acc is not None:
                    self._close_window(run)
                acc = run.acc = WindowAccumulator(window, width, run.n)
            if node == UNAVAILABLE:
                acc.unavailable += 1
                run.unavailable += 1
                continue
            run.requests += 1
            if node >= 0:
                acc.record(key, node)
                run.backend += 1
                run.nodes[node] += 1
                continue
            acc.record(key, None)
            run.hits += 1
            if layered:
                layer = layer_of[i]
                acc.record_layer(layer)
                run.layer_hits[layer] += 1
                run.layer_keys[layer].add(key)
                run.shard_hits[layer][shard_of[i]] += 1

        duration = columns.duration
        if run.acc is not None:
            self._close_window(run, final_t=duration)
        if trace is not None:
            for alert in trace["alerts"]:
                self._emit_alert(alert)
                run.alerts += 1
        gain = run.gain(duration)
        summary = {
            "type": "run-summary",
            "trial": run.trial,
            "duration": duration,
            "requests": run.requests,
            "hits": run.hits,
            "backend": run.backend,
            "final_gain": gain,
            "bound": bound,
            "windows": run.windows,
            "alerts": run.alerts,
        }
        if run.chaos:
            summary["unavailable"] = run.unavailable
            summary["effective_d_min"] = run.min_effective_d
            summary["degraded_bound"] = self._config.degraded_bound_for(
                self._config.x, run.min_effective_d, n=run.n
            )
        if run.layers is not None:
            summary["layers"] = [
                self._layer_summary(run, layer) for layer in range(len(run.layers))
            ]
        if trace is not None and trace["suspects"] is not None:
            summary["suspects"] = trace["suspects"]
        self._events.emit(summary)
        self._summaries.append(summary)
        if gain is not None:
            self._record_gain(gain)
            self._metrics.gauge("monitor_gain").set(gain)
        return summary

    def _layer_summary(self, run: _Run, layer: int) -> dict:
        """One layer's max-load report against the DistCache bound.

        ``balance_gain`` is the realised analogue of the Theorem-2 gain
        for the layer's shards: the busiest shard's hits over the even
        split ``hits / shards`` (``None`` when the layer served
        nothing).  ``distcache_bound`` is the two-choice max-load bound
        on hits per shard — :func:`repro.core.bounds.
        distcache_max_load_bound` with the config's ``k_prime`` — so
        the two report side by side in every run summary.
        """
        width = run.layers[layer]
        hits = run.layer_hits[layer]
        keys = len(run.layer_keys[layer])
        shard_hits = run.shard_hits[layer]
        shard_max = max(shard_hits) if shard_hits else 0
        bound = distcache_max_load_bound(
            hits, width, keys, self._config.k_prime
        )
        return {
            "layer": layer,
            "shards": width,
            "hits": hits,
            "keys": keys,
            "shard_max": shard_max,
            "balance_gain": (shard_max / (hits / width)) if hits else None,
            "distcache_bound": bound,
            "within_bound": shard_max <= bound,
        }

    def _close_window(self, run: _Run, final_t: Optional[float] = None) -> None:
        acc = run.acc
        run.acc = None
        if acc.requests == 0:
            return
        snapshot = acc.to_snapshot(run.trial, t_end=final_t)
        snapshot["running_gain"] = run.gain(snapshot["t_end"])
        snapshot["bound"] = run.bound
        if run.chaos:
            # Worst case over the window: transitions since the last
            # close, or the standing down-set if nothing changed.  With
            # a fraction f of nodes down, each key's d replicas survive
            # independently with probability 1 - f (random partitioning
            # places them uniformly), so the mean surviving choice is
            # d (1 - f): what Theorem 2's k = log log n / log d degrades
            # through.
            nodes_down = max(run.win_max_down, len(run.down))
            run.win_max_down = len(run.down)
            effective_d = self._config.d * (1.0 - nodes_down / run.n)
            snapshot["unavailable"] = acc.unavailable
            snapshot["nodes_down"] = nodes_down
            snapshot["effective_d"] = effective_d
            snapshot["degraded_bound"] = self._config.degraded_bound_for(
                self._config.x, effective_d, n=run.n
            )
            if run.min_effective_d is None or effective_d < run.min_effective_d:
                run.min_effective_d = effective_d
        if run.layers is not None:
            snapshot["layer_hits"] = {
                str(layer): acc.layer_hits.get(layer, 0)
                for layer in range(len(run.layers))
            }
        seconds = snapshot["seconds"]
        even = run.rate / run.n
        if seconds > 0:
            self._node_loads.extend([
                count / seconds / even
                for count in acc.node_counts[acc.node_counts > 0].tolist()
            ])
        fired = self._engine.evaluate(snapshot, _RuleContext(self._config, even))
        snapshot["alerts"] = [alert["rule"] for alert in fired]
        self._emit_window(snapshot)
        for alert in fired:
            self._emit_alert(alert)
        run.windows += 1
        run.alerts += len(fired)
