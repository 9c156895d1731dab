"""Online attack monitoring: the live counterpart of the paper's report.

End-of-run observability (PR 2) answers "what happened"; the
:class:`LoadMonitor` answers "what is happening" while a run executes:

- **simulated-clock sliding windows** (:mod:`repro.obs.windows`) of
  per-node load, cache hit ratio and key-frequency entropy — a
  streaming port of the batch flatness score (``tests/detection_oracle.py``);
- a **live attack-gain estimator**: the running
  ``L_max / (R/n)`` against the Theorem-2 bound
  ``1 + (1 - c + n k)/(x - 1)`` for the configured ``(n, d, c, x)``,
  with P² quantile sketches (:mod:`repro.obs.sketch`) over the
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
worker counts — per-trial monitors run inside workers, snapshot, and
merge in trial order (:meth:`LoadMonitor.merge_trial`), the same
discipline the metrics registry follows.

Two ingestion paths share one monitor type:

- **event path** (:class:`repro.sim.eventsim.EventDrivenSimulator`):
  :meth:`begin_run` / :meth:`observe` once per run with the run's
  :class:`~repro.obs.columns.TrialColumns` / :meth:`finalize`; the
  window clock is simulated seconds.
- **trial path** (:class:`repro.sim.analytic.MonteCarloSimulator`):
  :meth:`record_trial` turns each trial's
  :class:`~repro.types.LoadVector` into one trial-clock window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Set, Tuple

import numpy as np

from ..core.bounds import distcache_max_load_bound, fold_constant_k
from ..exceptions import ConfigurationError
from .alerts import AlertEngine, BUILTIN_RULES
from .columns import RETRIED, UNAVAILABLE, TrialColumns
from .events import SCHEMA_VERSION, EventLog
from .metrics import as_registry
from .sketch import QuantileBank
from .windows import WindowAccumulator

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


@dataclass(frozen=True)
class MonitorConfig:
    """Plain-data monitor configuration (picklable, spawn-safe).

    Parameters
    ----------
    window:
        Window width in simulated seconds (event path).  The trial path
        uses one window per trial and ignores this.
    n, rate, c, d:
        System shape.  The event engine supplies ``n`` and ``rate`` at
        :meth:`LoadMonitor.begin_run`, and the trial path derives them
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
    events:
        Optional shared :class:`~repro.obs.events.EventLog`; the monitor
        creates a private one when omitted.
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
        events: Optional[EventLog] = None,
        on_window: Optional[Callable[[dict], None]] = None,
        on_alert: Optional[Callable[[dict], None]] = None,
    ) -> None:
        self._config = config if config is not None else MonitorConfig()
        self._metrics = as_registry(metrics)
        self._events = events if events is not None else EventLog()
        self._engine = AlertEngine.from_names(self._config.rules)
        self._on_window = on_window
        self._on_alert = on_alert
        self._manifest_emitted = False
        # Campaign-level aggregates (fed directly or via merge_trial).
        self._windows = []
        self._alerts = []
        self._summaries = []
        self._gain_bank = QuantileBank()
        self._node_bank = QuantileBank()
        self._max_gain: Optional[float] = None
        self._final_gain: Optional[float] = None
        self._trials_merged = 0
        # Per-run (event-path) state.
        self._run_open = False
        self._trial = 0
        self._n: Optional[int] = self._config.n
        self._rate: Optional[float] = self._config.rate
        self._bound: Optional[float] = self._config.bound_for(self._config.x)
        self._acc: Optional[WindowAccumulator] = None
        self._cum_nodes: Optional[np.ndarray] = None
        self._cum_requests = 0
        self._cum_hits = 0
        self._cum_backend = 0
        self._run_windows = 0
        self._run_alerts = 0
        # Chaos (fault-injection) state; inert unless begin_run(chaos=True).
        self._chaos_run = False
        self._down_nodes: Set[int] = set()
        self._win_max_down = 0
        self._cum_unavailable = 0
        self._min_effective_d: Optional[float] = None
        # Hierarchy state; inert unless begin_run(layers=...) declares a
        # cache tree's layer widths.
        self._layers: Optional[Tuple[int, ...]] = None
        self._cum_layer_hits: list = []
        self._cum_shard_hits: list = []
        self._layer_keys: list = []

    # -- introspection -----------------------------------------------------

    @property
    def config(self) -> MonitorConfig:
        """The (picklable) configuration; workers rebuild from this."""
        return self._config

    @property
    def events(self) -> EventLog:
        """The structured event log."""
        return self._events

    @property
    def windows(self) -> list:
        """Window snapshot records, in emission/merge order."""
        return self._windows

    @property
    def alerts(self) -> list:
        """Alert records, in emission/merge order."""
        return self._alerts

    @property
    def summaries(self) -> list:
        """Run-summary records, in emission/merge order."""
        return self._summaries

    @property
    def bound(self) -> Optional[float]:
        """The Theorem-2 bound in force (``None`` when unconfigured)."""
        return self._bound

    @property
    def final_gain(self) -> Optional[float]:
        """Final streaming gain of the last finalized/merged run."""
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

    def begin_run(
        self,
        trial: int = 0,
        n: Optional[int] = None,
        rate: Optional[float] = None,
        chaos: bool = False,
        layers: Optional[Tuple[int, ...]] = None,
    ) -> None:
        """Start (or restart) ingesting one event-driven run.

        ``n`` and ``rate`` fall back to the config; the event engine
        always passes its own, so a bare ``MonitorConfig()`` works.
        ``chaos=True`` (set by the engine when fault injection is
        active) enables degraded-bound tracking: window snapshots and
        the run summary gain ``unavailable`` / ``nodes_down`` /
        ``effective_d`` / ``degraded_bound`` fields.  The default keeps
        every record byte-identical to a chaos-free monitor.

        ``layers`` (set by the engine when the front end is a
        :class:`~repro.cache.tree.CacheTree`) declares the hierarchy's
        shard count per layer and enables per-layer tracking: window
        snapshots gain a ``layer_hits`` map and the run summary a
        ``layers`` block reporting each layer's shard max-load against
        the DistCache two-choice bound, side by side with the Theorem-2
        gain estimate.  ``None`` (the default, and what degenerate
        single-shard trees produce) keeps every record byte-identical
        to a flat-cache monitor.
        """
        if self._run_open:
            raise ConfigurationError(
                "begin_run called while a run is open; finalize() it first"
            )
        n = self._config.n if n is None else n
        rate = self._config.rate if rate is None else rate
        if n is None or rate is None or rate <= 0:
            raise ConfigurationError(
                "event-path monitoring needs n and a positive rate "
                "(set them on MonitorConfig or pass them to begin_run)"
            )
        self._run_open = True
        self._trial = int(trial)
        self._n = int(n)
        self._rate = float(rate)
        self._bound = self._config.bound_for(self._config.x, n=self._n)
        self._acc = None
        self._cum_nodes = np.zeros(self._n, dtype=np.int64)
        self._cum_requests = 0
        self._cum_hits = 0
        self._cum_backend = 0
        self._run_windows = 0
        self._run_alerts = 0
        self._chaos_run = bool(chaos)
        self._down_nodes = set()
        self._win_max_down = 0
        self._cum_unavailable = 0
        self._min_effective_d = None
        self._layers = tuple(int(w) for w in layers) if layers else None
        if self._layers is not None:
            self._cum_layer_hits = [0] * len(self._layers)
            self._cum_shard_hits = [[0] * w for w in self._layers]
            self._layer_keys = [set() for _ in self._layers]
        else:
            self._cum_layer_hits = []
            self._cum_shard_hits = []
            self._layer_keys = []

    def _window_at(self, t: float) -> WindowAccumulator:
        """The accumulator covering ``t``, closing the previous window."""
        acc = self._acc
        index = int(t // self._config.window)
        if acc is None:
            acc = self._acc = WindowAccumulator(index, self._config.window, self._n)
        elif index != acc.index:
            self._close_window()
            acc = self._acc = WindowAccumulator(index, self._config.window, self._n)
        return acc

    def observe(self, columns: TrialColumns) -> None:
        """Ingest one event-driven run, in event order
        (:meth:`TrialColumns.event_order`).

        Windows close exactly where a request-by-request feed would
        close them.  On hierarchy runs (``begin_run(layers=...)``) a
        cache hit counts against the ``(layer, shard)`` that served it,
        for the DistCache bound.  An unavailable request is counted,
        not profiled: entropy tracks served traffic.  A node transition
        (chaos runs) updates the down-set behind per-window
        ``effective_d`` and lands as a ``node-event`` record.
        """
        layered = self._layers is not None and columns.layer is not None
        if layered:
            layers, shards = columns.layer.tolist(), columns.shard.tolist()
        times, keys = columns.time.tolist(), columns.key.tolist()
        outcome = columns.outcome.tolist()
        retry_time, retry_node = columns.retry_time.tolist(), columns.retry_node.tolist()
        retry_key = columns.key[columns.retry_request].tolist()
        event_time, event_node = columns.event_time.tolist(), columns.event_node.tolist()
        event_up = columns.event_up.tolist()
        cls, index = columns.event_order()
        for c, i in zip(cls.tolist(), index.tolist()):
            if c == 0:
                node, up = event_node[i], event_up[i]
                if up:
                    self._down_nodes.discard(node)
                else:
                    self._down_nodes.add(node)
                    self._win_max_down = max(self._win_max_down, len(self._down_nodes))
                self._events.emit({
                    "type": "node-event", "trial": self._trial, "t": event_time[i],
                    "node": node, "up": up, "nodes_down": len(self._down_nodes),
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
            acc = self._window_at(t)
            if node == UNAVAILABLE:
                acc.unavailable += 1
                self._cum_unavailable += 1
                continue
            self._cum_requests += 1
            if node >= 0:
                acc.record(key, node)
                self._cum_backend += 1
                self._cum_nodes[node] += 1
                continue
            acc.record(key, None)
            self._cum_hits += 1
            if layered:
                layer = layers[i]
                acc.record_layer(layer)
                self._cum_layer_hits[layer] += 1
                self._layer_keys[layer].add(key)
                self._cum_shard_hits[layer][shards[i]] += 1

    def finalize(
        self,
        duration: float,
        suspects: Optional[dict] = None,
        attribution_alerts: Optional[list] = None,
    ) -> Optional[dict]:
        """Close the open window and emit the run summary.

        Returns the summary record (``None`` when no run was open).
        The summary's ``final_gain`` uses the full run duration, so it
        equals the end-of-run ``EventSimResult.normalized_max``.

        ``suspects`` / ``attribution_alerts`` (supplied by the engines
        when a :class:`~repro.obs.trace.FlightRecorder` was attached)
        land the trace layer's ranked attribution block in the summary
        and its ``attribution-concentration`` firings in the event log;
        untraced runs pass neither and stay byte-identical to the
        pre-trace schema.
        """
        if not self._run_open:
            return None
        self._close_window(final_t=duration)
        if attribution_alerts:
            for alert in attribution_alerts:
                self._emit_alert(alert)
                self._run_alerts += 1
        gain = self._running_gain(duration)
        summary = {
            "type": "run-summary",
            "trial": self._trial,
            "duration": duration,
            "requests": self._cum_requests,
            "hits": self._cum_hits,
            "backend": self._cum_backend,
            "final_gain": gain,
            "bound": self._bound,
            "windows": self._run_windows,
            "alerts": self._run_alerts,
        }
        if self._chaos_run:
            summary["unavailable"] = self._cum_unavailable
            summary["effective_d_min"] = self._min_effective_d
            summary["degraded_bound"] = self._config.degraded_bound_for(
                self._config.x, self._min_effective_d, n=self._n
            )
        if self._layers is not None:
            summary["layers"] = [
                self._layer_summary(layer) for layer in range(len(self._layers))
            ]
        if suspects is not None:
            summary["suspects"] = suspects
        self._events.emit(summary)
        self._summaries.append(summary)
        if gain is not None:
            self._final_gain = gain
            self._max_gain = gain if self._max_gain is None else max(self._max_gain, gain)
            self._gain_bank.observe(gain)
            self._metrics.gauge("monitor_gain").set(gain)
        self._run_open = False
        return summary

    def _layer_summary(self, layer: int) -> dict:
        """One layer's max-load report against the DistCache bound.

        ``balance_gain`` is the realised analogue of the Theorem-2 gain
        for the layer's shards: the busiest shard's hits over the even
        split ``hits / shards`` (``None`` when the layer served
        nothing).  ``distcache_bound`` is the two-choice max-load bound
        on hits per shard — :func:`repro.core.bounds.
        distcache_max_load_bound` with the config's ``k_prime`` — so
        the two report side by side in every run summary.
        """
        width = self._layers[layer]
        hits = self._cum_layer_hits[layer]
        keys = len(self._layer_keys[layer])
        shard_hits = self._cum_shard_hits[layer]
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

    def _running_gain(self, t: float) -> Optional[float]:
        """Running ``L_max / (R/n)`` at simulated time ``t``."""
        if t <= 0 or self._cum_nodes is None:
            return None
        max_rate = float(self._cum_nodes.max()) / t
        return max_rate / (self._rate / self._n)

    def _effective_d(self, nodes_down: int) -> float:
        """Mean surviving replicas per key: ``d * (1 - down fraction)``.

        With a fraction ``f`` of nodes down, each key's ``d`` replicas
        survive independently with probability ``1 - f`` (random
        partitioning places them uniformly), so the expected surviving
        choice is ``d (1 - f)`` — the quantity Theorem 2's constant
        ``k = log log n / log d`` degrades through.
        """
        return self._config.d * (1.0 - nodes_down / self._n)

    def _close_window(self, final_t: Optional[float] = None) -> None:
        acc = self._acc
        self._acc = None
        if acc is None or acc.requests == 0:
            return
        snapshot = acc.to_snapshot(self._trial, t_end=final_t)
        snapshot["running_gain"] = self._running_gain(snapshot["t_end"])
        snapshot["bound"] = self._bound
        if self._chaos_run:
            # Worst case over the window: transitions since the last
            # close, or the standing down-set if nothing changed.
            nodes_down = max(self._win_max_down, len(self._down_nodes))
            self._win_max_down = len(self._down_nodes)
            effective_d = self._effective_d(nodes_down)
            snapshot["unavailable"] = acc.unavailable
            snapshot["nodes_down"] = nodes_down
            snapshot["effective_d"] = effective_d
            snapshot["degraded_bound"] = self._config.degraded_bound_for(
                self._config.x, effective_d, n=self._n
            )
            if self._min_effective_d is None or effective_d < self._min_effective_d:
                self._min_effective_d = effective_d
        if self._layers is not None:
            snapshot["layer_hits"] = {
                str(layer): acc.layer_hits.get(layer, 0)
                for layer in range(len(self._layers))
            }
        seconds = snapshot["seconds"]
        if seconds > 0:
            even = self._rate / self._n
            for count in acc.node_counts[acc.node_counts > 0].tolist():
                self._node_bank.observe(count / seconds / even)
        context = _RuleContext(self._config, self._rate / self._n)
        fired = self._engine.evaluate(snapshot, context)
        snapshot["alerts"] = [alert["rule"] for alert in fired]
        self._emit_window(snapshot)
        for alert in fired:
            self._emit_alert(alert)
        self._run_windows += 1
        self._run_alerts += len(fired)

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
        self._final_gain = gain
        self._max_gain = gain if self._max_gain is None else max(self._max_gain, gain)
        self._gain_bank.observe(gain)
        self._metrics.counter("monitor_trials_total").inc()
        self._metrics.gauge("monitor_gain").set(gain)
        return snapshot

    # -- shared emission ---------------------------------------------------

    def _emit_window(self, snapshot: dict) -> None:
        self._events.emit(snapshot)
        self._windows.append(snapshot)
        self._metrics.counter("monitor_windows_total").inc()
        if snapshot.get("running_gain") is not None:
            self._metrics.gauge("monitor_gain").set(snapshot["running_gain"])
        if self._on_window is not None:
            self._on_window(snapshot)

    def _emit_alert(self, alert: dict) -> None:
        self._events.emit(alert)
        self._alerts.append(alert)
        self._metrics.counter("monitor_alerts_total", rule=alert["rule"]).inc()
        if self._on_alert is not None:
            self._on_alert(alert)

    # -- snapshot / merge --------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-data dump a worker ships back for trial-order merging."""
        return {
            "schema": SCHEMA_VERSION,
            "records": list(self._events.records),
            "final_gain": self._final_gain,
            "max_gain": self._max_gain,
        }

    def merge_trial(self, snapshot: dict) -> None:
        """Fold one per-trial monitor snapshot into this campaign monitor.

        MUST be called in trial order (the parallel executor guarantees
        it); that ordering is what keeps merged monitor output identical
        across worker counts.  Worker manifests are dropped — the
        campaign monitor owns the single manifest.  Metrics are *not*
        re-recorded here: worker-side registries already carried the
        monitor counters and merge through the metrics path.
        """
        for record in snapshot.get("records", ()):
            if record["type"] == "manifest":
                continue
            self._events.emit(record)
            if record["type"] == "window":
                self._windows.append(record)
                if self._on_window is not None:
                    self._on_window(record)
            elif record["type"] == "alert":
                self._alerts.append(record)
                if self._on_alert is not None:
                    self._on_alert(record)
            elif record["type"] == "run-summary":
                self._summaries.append(record)
        final = snapshot.get("final_gain")
        if final is not None:
            self._final_gain = final
            self._max_gain = final if self._max_gain is None else max(self._max_gain, final)
            self._gain_bank.observe(final)
        self._trials_merged += 1

    def summary(self) -> dict:
        """Campaign-level aggregate view (what the dashboard renders)."""
        return {
            "schema": SCHEMA_VERSION,
            "config": self._config.to_dict(),
            "bound": self._bound,
            "windows": len(self._windows),
            "alerts": len(self._alerts),
            "runs": len(self._summaries) + (1 if self._run_open else 0),
            "trials_merged": self._trials_merged,
            "final_gain": self._final_gain,
            "max_gain": self._max_gain,
            "gain_quantiles": _finite_dict(self._gain_bank.estimates()),
            "node_load_quantiles": _finite_dict(self._node_bank.estimates()),
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

    def begin_run(
        self, trial: int = 0, n=None, rate=None, chaos=False, layers=None
    ) -> None:
        pass

    def observe(self, columns) -> None:
        pass

    def finalize(self, duration, suspects=None, attribution_alerts=None) -> Optional[dict]:
        return None

    def record_trial(
        self, trial, vector, campaign=None, x=None, c=None, d=None, effective_d=None
    ) -> dict:
        return {}

    def merge_trial(self, snapshot) -> None:
        pass

    def snapshot(self) -> dict:
        return {"schema": SCHEMA_VERSION, "records": [], "final_gain": None,
                "max_gain": None}


#: Process-wide shared no-op monitor.
NULL_MONITOR = NullMonitor()


def as_monitor(monitor: Optional[LoadMonitor]) -> LoadMonitor:
    """Normalise an optional ``monitor=`` argument: ``None`` -> no-op."""
    return NULL_MONITOR if monitor is None else monitor
