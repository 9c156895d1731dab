"""Online attack monitoring: the live counterpart of the paper's report.

End-of-run observability (PR 2) answers "what happened"; the
:class:`LoadMonitor` answers "what is happening" while a run executes:

- **simulated-clock tumbling windows** of per-node load, cache hit
  ratio and key-frequency entropy, computed from each run's columns —
  the per-window form of the batch flatness score
  (``tests/detection_oracle.py``);
- a **live attack-gain estimator**: the running
  ``L_max / (R/n)`` against the Theorem-2 bound
  ``1 + (1 - c + n k)/(x - 1)`` for the configured ``(n, d, c, x)``,
  with exact nearest-rank quantiles of the run gains and of the
  normalised per-window node loads;
- a **structured JSONL event log** (:mod:`repro.obs.events`): one
  manifest, one record per non-empty window, one record per alert, one
  run summary;
- a **rule-based alert engine** (:mod:`repro.obs.alerts`) whose
  firings land in the event log *and* the metrics registry;
- **degraded-bound tracking** (chaos runs): node up/down transitions
  from the fault injector (:mod:`repro.chaos`) feed per-window
  ``effective_d`` — the mean surviving replication choice — and a
  refreshed Theorem-2 bound computed with
  ``k_eff = log log n / log d_eff + k'``, which *grows* as failures
  shrink ``d_eff``; the ``degraded-bound`` alert fires whenever
  ``effective_d < d``.

Everything the monitor derives is keyed by simulated time (or trial
index), never wall clock, so monitor output is bit-identical across
worker counts — each trial's monitor runs inside its worker, comes back
whole, and merges in trial order (:meth:`LoadMonitor.merge_trial`), the
same discipline the metrics registry follows.

Two ingestion paths share one monitor type:

- **event path** (:class:`repro.sim.eventsim.EventDrivenSimulator`):
  one :meth:`observe` call per run with the run's
  :class:`~repro.obs.columns.TrialColumns`, which returns the run
  summary; the window clock is simulated seconds.
- **trial path** (:class:`repro.sim.analytic.MonteCarloSimulator`):
  :meth:`record_trial` turns each trial's
  :class:`~repro.types.LoadVector` into one trial-clock window.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Callable, List, Optional, Set, Tuple

import numpy as np

from ..core.bounds import distcache_max_load_bound, fold_constant_k
from ..exceptions import ConfigurationError
from .alerts import AlertEngine, BUILTIN_RULES
from .columns import HIT, UNAVAILABLE, TrialColumns
from .events import SCHEMA_VERSION, EventLog
from .metrics import as_registry

__all__ = [
    "MonitorConfig",
    "LoadMonitor",
    "NullMonitor",
    "NULL_MONITOR",
    "as_monitor",
]

#: Entropy-flatness threshold; kept numerically equal to the batch
#: oracle's ``FLATNESS_THRESHOLD`` in ``tests/detection_oracle.py``
#: (contract-tested).
FLATNESS_THRESHOLD = 0.95

#: The quantiles :meth:`LoadMonitor.summary` reports, by nearest rank.
QUANTILES = (0.5, 0.95, 0.99)


@dataclass(frozen=True)
class MonitorConfig:
    """Plain-data monitor configuration (picklable, spawn-safe).

    Parameters
    ----------
    window:
        Window width in simulated seconds (event path).  The trial path
        uses one window per trial and ignores this.
    n, rate, c, d:
        System shape.  The event engine passes ``n`` and ``rate`` to
        :meth:`LoadMonitor.observe`, and the trial path derives them
        from each :class:`~repro.types.LoadVector`, so both may stay
        ``None``; ``c`` and ``d`` (plus ``x``) are only needed for the
        Theorem-2 bound.
    x:
        The attack width the bound is evaluated at (``None`` disables
        the ``gain-over-bound`` rule unless a caller supplies ``x`` per
        trial or ``bound`` explicitly).
    k, k_prime:
        The folded constant of Eq. (10), or the Theta(1) remainder to
        fold via ``log log n / log d + k'`` when ``k`` is ``None``.
    bound:
        Explicit bound override; wins over the ``(x, k)`` computation.
    entropy_threshold, entropy_min_keys:
        The ``entropy-flat`` rule: fire when a window's normalised
        entropy reaches the threshold over more than ``entropy_min_keys``
        distinct keys (the Theorem-1 fingerprint).
    overload_factor:
        The ``node-overload`` rule fires when a node's offered window
        rate exceeds ``overload_factor * R/n``; 4.0 matches the event
        engine's default per-node capacity headroom.
    rules:
        Built-in rule names to enable, in evaluation order.
    """

    window: float = 0.1
    n: Optional[int] = None
    rate: Optional[float] = None
    c: int = 0
    d: int = 2
    x: Optional[int] = None
    k: Optional[float] = None
    k_prime: float = 0.75
    bound: Optional[float] = None
    entropy_threshold: float = FLATNESS_THRESHOLD
    entropy_min_keys: int = 10
    overload_factor: float = 4.0
    rules: Tuple[str, ...] = (
        "gain-over-bound", "entropy-flat", "node-overload", "degraded-bound"
    )

    def __post_init__(self) -> None:
        if self.window <= 0:
            raise ConfigurationError(f"window must be positive, got {self.window}")
        if self.overload_factor <= 0:
            raise ConfigurationError(
                f"overload_factor must be positive, got {self.overload_factor}"
            )
        unknown = [r for r in self.rules if r not in BUILTIN_RULES]
        if unknown:
            raise ConfigurationError(
                f"unknown alert rules {unknown}; available: {sorted(BUILTIN_RULES)}"
            )

    @classmethod
    def from_params(cls, params, x: Optional[int] = None, **overrides) -> "MonitorConfig":
        """Build from a :class:`~repro.core.notation.SystemParameters`."""
        fields = dict(
            n=params.n, rate=params.rate, c=params.c, d=params.d, x=x
        )
        fields.update(overrides)
        return cls(**fields)

    def bound_for(
        self,
        x: Optional[int],
        n: Optional[int] = None,
        c: Optional[int] = None,
        d: Optional[int] = None,
    ) -> Optional[float]:
        """Theorem-2 bound ``1 + (1 - c + n k)/(x - 1)``, or ``None``.

        ``n``/``c``/``d`` fall back to the config; campaigns that sweep
        the system shape (the figure drivers) pass each point's own
        values so the bound tracks the sweep.  Returns ``None`` when no
        ``x`` is available, ``x`` does not exceed the cache (the bound
        is trivially 0 there and the gain rule is meaningless), or the
        system shape is insufficient (``n`` unknown, or ``d < 2`` with
        no explicit ``k``).
        """
        if self.bound is not None:
            return self.bound
        n = self.n if n is None else n
        c = self.c if c is None else c
        d = self.d if d is None else d
        if x is None or x < 2 or x <= c:
            return None
        if n is None:
            return None
        k = self.k
        if k is None:
            if d < 2:
                return None
            k = fold_constant_k(n, d, self.k_prime)
        return 1.0 + (1.0 - c + n * k) / (x - 1)

    def degraded_bound_for(
        self,
        x: Optional[int],
        effective_d: Optional[float],
        n: Optional[int] = None,
        c: Optional[int] = None,
    ) -> Optional[float]:
        """Theorem-2 bound refreshed for a degraded replication choice.

        Failures shrink the mean surviving choice to ``effective_d < d``;
        the bound's constant becomes
        ``k_eff = log log n / log d_eff + k'``, which grows as ``d_eff``
        shrinks — the degraded bound is always at least the healthy one.
        Returns ``None`` when no bound is computable: missing ``x``/``n``,
        ``x`` inside the cache, or ``effective_d <= 1`` (with one or
        fewer surviving replicas per key the d-choice theory gives no
        bound at all — total failure, not degradation).

        Always computed from ``k_prime`` (never the explicit ``k`` or
        ``bound`` overrides, which cannot be re-folded for a different
        ``d``), matching :func:`repro.core.bounds.fold_constant_k` with
        its small-``n`` clamp.
        """
        if effective_d is None or effective_d <= 1.0:
            return None
        n = self.n if n is None else n
        c = self.c if c is None else c
        if x is None or x < 2 or x <= c or n is None:
            return None
        excess = 0.0 if n <= math.e else math.log(math.log(n)) / math.log(effective_d)
        k_eff = excess + self.k_prime
        return 1.0 + (1.0 - c + n * k_eff) / (x - 1)

    def to_dict(self) -> dict:
        """JSON-able form for the manifest record."""
        return {
            "window": self.window,
            "n": self.n,
            "rate": self.rate,
            "c": self.c,
            "d": self.d,
            "x": self.x,
            "k": self.k,
            "k_prime": self.k_prime,
            "bound": self.bound,
            "entropy_threshold": self.entropy_threshold,
            "entropy_min_keys": self.entropy_min_keys,
            "overload_factor": self.overload_factor,
            "rules": list(self.rules),
        }


class _RuleContext:
    """The slice of monitor state the alert rules read."""

    __slots__ = ("entropy_threshold", "entropy_min_keys", "overload_factor",
                 "d", "_even")

    def __init__(
        self,
        config: MonitorConfig,
        even_split: Optional[float],
        d: Optional[int] = None,
    ) -> None:
        self.entropy_threshold = config.entropy_threshold
        self.entropy_min_keys = config.entropy_min_keys
        self.overload_factor = config.overload_factor
        self.d = config.d if d is None else d
        self._even = even_split

    def even_split(self) -> Optional[float]:
        return self._even


class LoadMonitor:
    """Maintains windows, the gain estimate, the event log and alerts.

    Parameters
    ----------
    config:
        :class:`MonitorConfig`; the default monitors without a bound.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`; window and
        alert counters (all simulated-state, hence deterministic) land
        here alongside the rest of the run's metrics.
    on_window, on_alert:
        Live callbacks fired with each window snapshot / alert record as
        it lands in this monitor (the attack-lab example and the CLI's
        ``--alerts`` use these).  Records produced by worker-side
        per-trial monitors fire the campaign monitor's callbacks at
        merge time, in trial order.
    """

    enabled = True

    def __init__(
        self,
        config: Optional[MonitorConfig] = None,
        metrics=None,
        on_window: Optional[Callable[[dict], None]] = None,
        on_alert: Optional[Callable[[dict], None]] = None,
    ) -> None:
        self._config = config if config is not None else MonitorConfig()
        self._metrics = as_registry(metrics)
        self._events = EventLog()
        self._engine = AlertEngine.from_names(self._config.rules)
        self._on_window = on_window
        self._on_alert = on_alert
        self._manifest_emitted = False
        # Final gains and normalised per-window node loads, in feed order
        # (merge_trial extends them, so a campaign monitor's quantiles
        # see every trial's).
        self._gains: List[float] = []
        self._node_loads: List[float] = []
        self._max_gain: Optional[float] = None
        self._final_gain: Optional[float] = None
        self._bound: Optional[float] = self._config.bound_for(self._config.x)
        self._trials_merged = 0

    # -- introspection -----------------------------------------------------

    @property
    def config(self) -> MonitorConfig:
        """The (picklable) configuration; workers rebuild from this."""
        return self._config

    @property
    def events(self) -> EventLog:
        """The structured event log."""
        return self._events

    def _records_of(self, kind: str) -> list:
        return [record for record in self._events.records if record["type"] == kind]

    @property
    def windows(self) -> list:
        """Window snapshot records of the event log, in emission/merge order."""
        return self._records_of("window")

    @property
    def alerts(self) -> list:
        """Alert records of the event log, in emission/merge order."""
        return self._records_of("alert")

    @property
    def summaries(self) -> list:
        """Run-summary records of the event log, in emission/merge order."""
        return self._records_of("run-summary")

    @property
    def bound(self) -> Optional[float]:
        """The Theorem-2 bound in force, at the last observed run's ``n``
        (``None`` when unconfigured)."""
        return self._bound

    @property
    def final_gain(self) -> Optional[float]:
        """Final streaming gain of the last observed/merged run."""
        return self._final_gain

    @property
    def max_gain(self) -> Optional[float]:
        """Largest final gain seen across runs/trials."""
        return self._max_gain

    # -- manifest ----------------------------------------------------------

    def emit_manifest(self, **extra) -> Optional[dict]:
        """Emit the manifest record once (no-op on repeat calls)."""
        if self._manifest_emitted:
            return None
        self._manifest_emitted = True
        return self._events.emit(
            {
                "type": "manifest",
                "schema": SCHEMA_VERSION,
                "config": self._config.to_dict(),
                **extra,
            }
        )

    # -- event path --------------------------------------------------------

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
        """Ingest one event-driven run and return its run summary.

        The run's requests are read from :meth:`TrialColumns.request_stream`:
        a window is the run of consecutive requests with one
        ``floor(t / width)``, and it closes at the next window's first
        request, so node events up to that request come before its
        record.  An unavailable request is counted, not profiled:
        entropy tracks served traffic, and a window of only unavailable
        requests emits nothing.  The summary's ``final_gain`` uses the
        run's ``duration``, so it equals the end-of-run
        ``EventSimResult.normalized_max``.

        ``chaos=True`` (fault injection active) enables degraded-bound
        tracking: a node transition updates the down-set behind
        per-window ``effective_d`` and lands as a ``node-event`` record,
        and window snapshots and the summary gain ``unavailable`` /
        ``nodes_down`` / ``effective_d`` / ``degraded_bound`` fields.

        ``layers`` (a :class:`~repro.cache.tree.CacheTree`'s shard count
        per layer) counts each cache hit against the ``(layer, shard)``
        that served it: window snapshots gain a ``layer_hits`` map and
        the summary a ``layers`` block reporting each layer's shard
        max-load against the DistCache two-choice bound.

        ``trace`` is the :meth:`~repro.obs.trace.FlightRecorder.observe`
        summary of the same run: its ``suspects`` block lands in the run
        summary and its ``attribution-concentration`` alerts in the
        event log.  The defaults keep every record byte-identical to a
        chaos-free, flat-cache, untraced monitor.
        """
        config = self._config
        bound = self._bound = config.bound_for(config.x, n=n)
        trial, n, rate = int(columns.trial), int(n), float(rate)
        layers = tuple(int(w) for w in layers) if layers else None
        even = rate / n
        width = config.window
        time, key, node, request, _retry, events, before = columns.request_stream()

        # Windows: one segment of consecutive requests per floor(t / width).
        window = np.floor_divide(time, width).astype(np.int64)
        starts = np.flatnonzero(np.diff(window, prepend=window[:1] - 1))
        n_windows = starts.size
        seg = np.repeat(np.arange(n_windows), np.diff(np.append(starts, time.size)))
        served, backend, hit = node != UNAVAILABLE, node >= 0, node == HIT

        def per_window(mask):
            return np.bincount(seg[mask], minlength=n_windows)

        requests, hits = per_window(served), per_window(hit)
        backends, unavailable = per_window(backend), per_window(~served)

        # Entropy: a key's c-th request in its window adds
        # c ln c - (c-1) ln(c-1) to sum_i c_i ln c_i, summed in arrival
        # order; math.log, since np.log can differ in the last bit.
        served_seg = seg[served]
        rank = _ranks(np.unique(key[served], return_inverse=True)[1], served_seg)
        distinct = np.bincount(served_seg[rank == 1], minlength=n_windows)
        top = np.zeros(n_windows, dtype=np.int64)
        np.maximum.at(top, served_seg, rank)
        clogc = [0.0] + [k * math.log(k) for k in range(1, int(rank.max(initial=0)) + 1)]
        delta = np.diff(clogc)[rank - 1]
        served_cut = np.searchsorted(served_seg, np.arange(n_windows + 1))

        # Node loads per (window, node) pair, in node order.
        pair, pair_count = np.unique(seg[backend] * n + node[backend], return_counts=True)
        pair_seg, pair_node = np.divmod(pair, n)
        pair_cut = np.searchsorted(pair_seg, np.arange(n_windows + 1))
        node_max = np.zeros(n_windows, dtype=np.int64)
        np.maximum.at(node_max, pair_seg, pair_count)
        at_max = pair_count == node_max[pair_seg]
        node_max_id = np.full(n_windows, n, dtype=np.int64)
        np.minimum.at(node_max_id, pair_seg[at_max], pair_node[at_max])
        node_max_id[node_max == 0] = -1

        # The busiest node's running count: a backend request's rank
        # among its node's requests, maximised over the run so far.
        peak_after = np.maximum.accumulate(np.append(0, _ranks(node[backend])))
        peak = peak_after[np.searchsorted(seg[backend], np.arange(n_windows), side="right")]

        layer_rows = None
        if layers is not None:
            # A flat cache's hits have no (layer, shard) path: they count nowhere.
            flat = np.full(columns.time.size, -1, dtype=np.int64)
            layer_of = flat if columns.layer is None else columns.layer
            shard_of = flat if columns.shard is None else columns.shard
            on_path = hit & (layer_of[request] >= 0)
            hit_layer, hit_shard = layer_of[request[on_path]], shard_of[request[on_path]]
            hit_key = key[on_path]
            layer_rows = np.bincount(
                seg[on_path] * len(layers) + hit_layer, minlength=n_windows * len(layers)
            ).reshape(n_windows, len(layers)).tolist()

        down: Set[int] = set()
        win_max_down = 0
        min_effective_d: Optional[float] = None
        n_emitted = n_alerts = 0
        event_time = columns.event_time[events].tolist()
        event_node = columns.event_node[events].tolist()
        event_up = columns.event_up[events].tolist()
        before = before.tolist()
        context = _RuleContext(config, even)
        next_event = 0

        def node_events_until(limit):
            nonlocal next_event, win_max_down
            while next_event < len(before) and before[next_event] <= limit:
                j = next_event
                node_id, up = event_node[j], event_up[j]
                if up:
                    down.discard(node_id)
                else:
                    down.add(node_id)
                    win_max_down = max(win_max_down, len(down))
                self._events.emit({
                    "type": "node-event", "trial": trial, "t": event_time[j],
                    "node": node_id, "up": up, "nodes_down": len(down),
                })
                self._metrics.counter("monitor_node_events_total").inc()
                next_event += 1

        closes = starts[1:].tolist() + [math.inf]
        requests, hits, backends = requests.tolist(), hits.tolist(), backends.tolist()
        unavailable, distinct, top = unavailable.tolist(), distinct.tolist(), top.tolist()
        node_max, node_max_id = node_max.tolist(), node_max_id.tolist()
        active, peak = np.diff(pair_cut).tolist(), peak.tolist()
        for s, index in enumerate(window[starts].tolist()):
            node_events_until(closes[s])
            total = requests[s]
            if not total:
                continue
            t_start = index * width
            t_end = (index + 1) * width
            if s + 1 == n_windows:
                t_end = min(columns.duration, t_end)
            seconds = max(t_end - t_start, 0.0)
            entropy = 0.0
            if distinct[s] > 1:
                sum_clogc = float(np.cumsum(delta[served_cut[s]:served_cut[s + 1]])[-1])
                entropy = (math.log(total) - sum_clogc / total) / math.log(distinct[s])
            snapshot = {
                "type": "window",
                "clock": "simulated",
                "trial": trial,
                "index": index,
                "t_start": t_start,
                "t_end": t_end,
                "seconds": seconds,
                "requests": total,
                "hits": hits[s],
                "backend": backends[s],
                "hit_ratio": hits[s] / total,
                "distinct_keys": distinct[s],
                "normalized_entropy": entropy,
                "top_key_share": top[s] / total,
                "node_max": node_max[s],
                "node_max_id": node_max_id[s],
                "nodes_active": active[s],
                "running_gain": _gain(peak[s], t_end, even),
                "bound": bound,
            }
            if chaos:
                # Worst case over the window: transitions since the last
                # close, or the standing down-set if nothing changed.  With
                # a fraction f of nodes down, each key's d replicas survive
                # independently with probability 1 - f (random partitioning
                # places them uniformly), so the mean surviving choice is
                # d (1 - f): what Theorem 2's k = log log n / log d degrades
                # through.
                nodes_down = max(win_max_down, len(down))
                win_max_down = len(down)
                effective_d = config.d * (1.0 - nodes_down / n)
                snapshot["unavailable"] = unavailable[s]
                snapshot["nodes_down"] = nodes_down
                snapshot["effective_d"] = effective_d
                snapshot["degraded_bound"] = config.degraded_bound_for(
                    config.x, effective_d, n=n
                )
                if min_effective_d is None or effective_d < min_effective_d:
                    min_effective_d = effective_d
            if layer_rows is not None:
                snapshot["layer_hits"] = {
                    str(layer): count for layer, count in enumerate(layer_rows[s])
                }
            if seconds > 0:
                self._node_loads.extend(
                    (pair_count[pair_cut[s]:pair_cut[s + 1]] / seconds / even).tolist()
                )
            fired = self._engine.evaluate(snapshot, context)
            snapshot["alerts"] = [alert["rule"] for alert in fired]
            self._emit_window(snapshot)
            for alert in fired:
                self._emit_alert(alert)
            n_emitted += 1
            n_alerts += len(fired)
        node_events_until(math.inf)

        duration = columns.duration
        if trace is not None:
            for alert in trace["alerts"]:
                self._emit_alert(alert)
                n_alerts += 1
        gain = _gain(int(peak_after[-1]), duration, even)
        summary = {
            "type": "run-summary",
            "trial": trial,
            "duration": duration,
            "requests": sum(requests),
            "hits": sum(hits),
            "backend": sum(backends),
            "final_gain": gain,
            "bound": bound,
            "windows": n_emitted,
            "alerts": n_alerts,
        }
        if chaos:
            summary["unavailable"] = sum(unavailable)
            summary["effective_d_min"] = min_effective_d
            summary["degraded_bound"] = config.degraded_bound_for(
                config.x, min_effective_d, n=n
            )
        if layers is not None:
            summary["layers"] = [
                self._layer_summary(
                    layer, shards,
                    np.bincount(hit_shard[hit_layer == layer], minlength=shards).tolist(),
                    np.unique(hit_key[hit_layer == layer]).size,
                )
                for layer, shards in enumerate(layers)
            ]
        if trace is not None and trace["suspects"] is not None:
            summary["suspects"] = trace["suspects"]
        self._events.emit(summary)
        if gain is not None:
            self._record_gain(gain)
            self._metrics.gauge("monitor_gain").set(gain)
        return summary

    def _layer_summary(self, layer: int, shards: int, shard_hits: List[int], keys: int) -> dict:
        """One layer's max-load report against the DistCache bound.

        ``balance_gain`` is the realised analogue of the Theorem-2 gain
        for the layer's shards: the busiest shard's hits over the even
        split ``hits / shards`` (``None`` when the layer served
        nothing).  ``distcache_bound`` is the two-choice max-load bound
        on hits per shard — :func:`repro.core.bounds.
        distcache_max_load_bound` with the config's ``k_prime`` — so
        the two report side by side in every run summary.
        """
        hits = sum(shard_hits)
        shard_max = max(shard_hits) if shard_hits else 0
        bound = distcache_max_load_bound(hits, shards, keys, self._config.k_prime)
        return {
            "layer": layer,
            "shards": shards,
            "hits": hits,
            "keys": keys,
            "shard_max": shard_max,
            "balance_gain": (shard_max / (hits / shards)) if hits else None,
            "distcache_bound": bound,
            "within_bound": shard_max <= bound,
        }

    def _record_gain(self, gain: float) -> None:
        """Fold one run's or trial's final gain into the campaign view."""
        self._final_gain = gain
        self._max_gain = gain if self._max_gain is None else max(self._max_gain, gain)
        self._gains.append(float(gain))

    # -- trial path --------------------------------------------------------

    def record_trial(
        self,
        trial: int,
        vector,
        campaign: Optional[str] = None,
        x: Optional[int] = None,
        c: Optional[int] = None,
        d: Optional[int] = None,
        effective_d: Optional[float] = None,
    ) -> dict:
        """Ingest one Monte-Carlo trial's :class:`~repro.types.LoadVector`.

        Each trial becomes one trial-clock window record; ``x`` (the
        sweep point's attack width) and ``c``/``d`` (its system shape),
        when the campaign knows them, refresh the Theorem-2 bound per
        call.  ``effective_d`` (set by chaos-enabled Monte-Carlo trials)
        adds degraded-bound fields and arms the ``degraded-bound`` rule.
        """
        gain = vector.normalized_max
        bound = self._config.bound_for(
            x if x is not None else self._config.x,
            n=vector.n_nodes, c=c, d=d,
        )
        snapshot = {
            "type": "window",
            "clock": "trial",
            "trial": int(trial),
            "index": int(trial),
            "campaign": campaign,
            "gain": gain,
            "max_load": vector.max_load,
            "bound": bound,
        }
        if effective_d is not None:
            snapshot["effective_d"] = float(effective_d)
            snapshot["degraded_bound"] = self._config.degraded_bound_for(
                x if x is not None else self._config.x,
                effective_d, n=vector.n_nodes, c=c,
            )
        even = vector.total_rate / vector.n_nodes if vector.total_rate else None
        context = _RuleContext(self._config, even, d=d)
        fired = self._engine.evaluate(snapshot, context)
        snapshot["alerts"] = [alert["rule"] for alert in fired]
        self._emit_window(snapshot)
        for alert in fired:
            self._emit_alert(alert)
        self._record_gain(gain)
        self._metrics.counter("monitor_trials_total").inc()
        self._metrics.gauge("monitor_gain").set(gain)
        return snapshot

    # -- shared emission ---------------------------------------------------

    def _emit_window(self, snapshot: dict) -> None:
        self._events.emit(snapshot)
        self._metrics.counter("monitor_windows_total").inc()
        if snapshot.get("running_gain") is not None:
            self._metrics.gauge("monitor_gain").set(snapshot["running_gain"])
        if self._on_window is not None:
            self._on_window(snapshot)

    def _emit_alert(self, alert: dict) -> None:
        self._events.emit(alert)
        self._metrics.counter("monitor_alerts_total", rule=alert["rule"]).inc()
        if self._on_alert is not None:
            self._on_alert(alert)

    # -- merge -------------------------------------------------------------

    def merge_trial(self, other: "LoadMonitor") -> None:
        """Fold one trial's monitor into this campaign monitor.

        MUST be called in trial order (the parallel executor guarantees
        it); that ordering is what keeps merged monitor output identical
        across worker counts.  ``other``'s records are re-emitted in
        order, firing this monitor's callbacks; its manifest is dropped
        — the campaign monitor owns the single manifest.  Metrics are
        *not* re-recorded here: the trial's registry already carried the
        monitor counters and merges through the metrics path.  The
        trial's normalised node loads feed the node-load quantiles.
        """
        for record in other.events.records:
            kind = record["type"]
            if kind == "manifest":
                continue
            self._events.emit(record)
            if kind == "window" and self._on_window is not None:
                self._on_window(record)
            elif kind == "alert" and self._on_alert is not None:
                self._on_alert(record)
        self._node_loads.extend(other._node_loads)
        if other.final_gain is not None:
            self._record_gain(other.final_gain)
        self._trials_merged += 1

    def summary(self) -> dict:
        """Campaign-level aggregate view (what the dashboard renders)."""
        return {
            "schema": SCHEMA_VERSION,
            "config": self._config.to_dict(),
            "bound": self._bound,
            "windows": len(self.windows),
            "alerts": len(self.alerts),
            "runs": len(self.summaries),
            "trials_merged": self._trials_merged,
            "final_gain": self._final_gain,
            "max_gain": self._max_gain,
            "gain_quantiles": _series_summary(self._gains),
            "node_load_quantiles": _series_summary(self._node_loads),
        }


def _finite_dict(values: dict) -> dict:
    """Replace non-finite floats with ``None`` (JSONL stays strict)."""
    out = {}
    for key, value in values.items():
        if isinstance(value, float) and (value != value or value in (float("inf"), float("-inf"))):
            out[key] = None
        else:
            out[key] = value
    return out


def _ranks(ids: np.ndarray, *segments: np.ndarray) -> np.ndarray:
    """Each row's 1-based occurrence number among the rows with its id
    and, given a nondecreasing ``segments`` label, in its segment.

    ``ids`` are non-negative with ``ids * len(ids)`` inside int64 (node
    ids, or dense key ids from ``np.unique``): sorting
    ``ids * len(ids) + row``, whose values are distinct, lists each id's
    rows in row order, so its segments stay contiguous there.
    """
    size = ids.size
    order = np.argsort(ids * size + np.arange(size))
    head = np.zeros(size, dtype=bool)
    head[:1] = True
    for column in (ids, *segments):
        column = column[order]
        head[1:] |= column[1:] != column[:-1]
    first = np.flatnonzero(head)
    rank = np.empty(size, dtype=np.int64)
    rank[order] = np.arange(size) - first[np.cumsum(head) - 1] + 1
    return rank


def _gain(peak: int, t: float, even: float) -> Optional[float]:
    """``L_max / (R/n)`` at simulated time ``t`` for a busiest node's
    ``peak`` requests (``None`` before ``t > 0``)."""
    if t <= 0:
        return None
    return float(peak) / t / even


def _series_summary(values: List[float]) -> dict:
    """p50/p95/p99 by nearest rank, then count, mean, min and max.

    The mean divides a sequential sum in feed order (``sum`` of floats
    is compensated from Python 3.12 on, so it could differ in the last
    bit across interpreters); every field but ``count`` is ``None`` for
    an empty series.
    """
    count = len(values)
    if not count:
        return {**dict.fromkeys(("p50", "p95", "p99"), None), "count": 0,
                "mean": None, "min": None, "max": None}
    ordered = sorted(values)
    out = {
        f"p{round(q * 100):02d}": ordered[max(1, math.ceil(q * count - 1e-9)) - 1]
        for q in QUANTILES
    }
    out["count"] = count
    out["mean"] = functools.reduce(operator.add, values, 0.0) / count
    out["min"] = min(values)
    out["max"] = max(values)
    return _finite_dict(out)


class NullMonitor(LoadMonitor):
    """The disabled monitor: records nothing, allocates nothing per call.

    Instrumented paths guard on ``monitor.enabled`` (or ``monitor is
    None``), so attaching the null monitor leaves a run byte-identical
    to an unmonitored one — the same contract the null registry keeps.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__(MonitorConfig())

    def emit_manifest(self, **extra) -> Optional[dict]:
        return None

    def observe(self, columns, **run) -> None:
        return None

    def record_trial(
        self, trial, vector, campaign=None, x=None, c=None, d=None, effective_d=None
    ) -> dict:
        return {}


#: Process-wide shared no-op monitor.
NULL_MONITOR = NullMonitor()


def as_monitor(monitor: Optional[LoadMonitor]) -> LoadMonitor:
    """Normalise an optional ``monitor=`` argument: ``None`` -> no-op."""
    return NULL_MONITOR if monitor is None else monitor
