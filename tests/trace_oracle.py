"""Reference implementation of the flight recorder: one request at a time.

This is the per-request path :meth:`repro.obs.trace.FlightRecorder.observe`
and :meth:`~repro.obs.trace.FlightRecorder.from_export` ran before
attribution became column code.  It stays here, outside the package, as
the oracle the trace differential suite
(``tests/test_trace_differential.py``) compares the column code
against: :class:`ReferenceRecorder` is a :class:`FlightRecorder` whose
``observe`` builds one record per traced request in event order and
feeds each one to :class:`ReferenceAttribution`, a streaming aggregator
with its own tumbling window, and must produce the same records,
summaries, alerts, suspects and JSONL bit for bit.

Semantics the column code has to match (and that this code defines):

- a window opens at a traced request whose ``floor(t / window)`` differs
  from the open window's, and closes the open one; the run's last
  window ends at ``min((index + 1) * window, duration)``;
- a window's top prefix has the most requests, ties to the smaller
  prefix, and feeds the ``attribution-concentration`` rule;
- prefix and client rows rank on ``(-requests, ident)``; entropy is
  ``math.fsum`` over ``c * log(c)`` of each row's key counts;
- the key sketch sees the run's traced keys in event order, and the
  campaign sketch each run's ``items()`` in trial order.
"""

from __future__ import annotations

import math
from itertools import repeat
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

import numpy as np

from repro.obs.alerts import AlertEngine, BUILTIN_RULES
from repro.obs.columns import HIT, RETRIED, SERVED, UNAVAILABLE, TrialColumns
from repro.obs.sketch import SpaceSaving
from repro.obs.trace import _STATUS, TRACE_SCHEMA_VERSION, FlightRecorder, TraceConfig

__all__ = ["ReferenceAttribution", "ReferenceRecorder"]

#: Space-saving counters kept per ``top_k`` reported rows.
SKETCH_FACTOR = 8


def _entropy(counts: Dict[int, int]) -> Optional[float]:
    """Normalised Shannon entropy of a key-count map (``None`` if <2 keys)."""
    distinct = len(counts)
    if distinct <= 1:
        return None
    total = sum(counts.values())
    sum_clogc = math.fsum(c * math.log(c) for c in counts.values() if c > 1)
    return (math.log(total) - sum_clogc / total) / math.log(distinct)


class _Dimension:
    """Counts for one attribution dimension (prefix or client)."""

    __slots__ = ("requests", "backend", "keys")

    def __init__(self) -> None:
        self.requests = 0
        self.backend = 0
        self.keys: Dict[int, int] = {}


class ReferenceAttribution:
    """Per-run (or campaign-merged) attribution, fed one request at a time."""

    def __init__(self, config, trial: int = 0) -> None:
        self._config = config
        self._trial = int(trial)
        self._rule_engine = AlertEngine([BUILTIN_RULES["attribution-concentration"]])
        self._prefixes: Dict[int, _Dimension] = {}
        self._clients: Dict[int, _Dimension] = {}
        self._key_sketch = SpaceSaving(SKETCH_FACTOR * config.top_k)
        self._samples = 0
        self._backend_total = 0
        self._alerts: List[dict] = []
        self._win_index: Optional[int] = None
        self._win_prefix: Dict[int, int] = {}
        self._win_samples = 0

    @property
    def alerts(self) -> List[dict]:
        return self._alerts

    def add(self, t: float, prefix: int, client: int, key: int, backend: bool) -> None:
        """Aggregate one traced request at simulated time ``t``."""
        index = int(t // self._config.window)
        if self._win_index is None:
            self._win_index = index
        elif index != self._win_index:
            self._close_window()
            self._win_index = index
        self._win_prefix[prefix] = self._win_prefix.get(prefix, 0) + 1
        self._win_samples += 1
        for dimension, ident in ((self._prefixes, prefix), (self._clients, client)):
            slot = dimension.get(ident)
            if slot is None:
                slot = dimension[ident] = _Dimension()
            slot.requests += 1
            slot.keys[key] = slot.keys.get(key, 0) + 1
            if backend:
                slot.backend += 1
        self._key_sketch.offer(key)
        self._samples += 1
        if backend:
            self._backend_total += 1

    def _close_window(self, final_t: Optional[float] = None) -> None:
        index = self._win_index
        samples = self._win_samples
        self._win_index = None
        prefix_counts = self._win_prefix
        self._win_prefix = {}
        self._win_samples = 0
        if index is None or samples == 0:
            return
        top_prefix, top_count = min(
            prefix_counts.items(), key=lambda item: (-item[1], item[0])
        )
        t_end = (index + 1) * self._config.window
        if final_t is not None:
            t_end = min(t_end, final_t)
        snapshot = {
            "trial": self._trial,
            "index": index,
            "t_end": t_end,
            "attribution_samples": samples,
            "attribution_top_share": top_count / samples,
            "attribution_top_prefix": top_prefix,
        }
        alerts = self._rule_engine.evaluate(snapshot, self._config)
        for alert in alerts:
            alert["prefix"] = top_prefix
        self._alerts.extend(alerts)

    def finalize(self, duration: float) -> dict:
        """Close the open window; returns the run's suspects block."""
        self._close_window(final_t=duration)
        return self.suspects()

    def _rank(self, dimension: Dict[int, _Dimension], label: str) -> List[dict]:
        total = self._samples
        backend_total = self._backend_total
        rows = sorted(
            dimension.items(), key=lambda item: (-item[1].requests, item[0])
        )[: self._config.top_k]
        return [
            {
                label: ident,
                "requests": slot.requests,
                "share": slot.requests / total,
                "backend": slot.backend,
                "backend_share": (
                    slot.backend / backend_total if backend_total else None
                ),
                "distinct_keys": len(slot.keys),
                "entropy": _entropy(slot.keys),
            }
            for ident, slot in rows
        ]

    def suspects(self) -> dict:
        total = self._samples
        if total == 0:
            return {"samples": 0, "prefixes": [], "clients": [], "keys": []}
        return {
            "samples": total,
            "prefixes": self._rank(self._prefixes, "prefix"),
            "clients": self._rank(self._clients, "client"),
            "keys": [
                {"key": key, "count": count, "error": error, "share": count / total}
                for key, count, error in self._key_sketch.top(self._config.top_k)
            ],
        }

    def snapshot(self) -> dict:
        def dump(dimension: Dict[int, _Dimension]) -> list:
            return [
                [ident, slot.requests, slot.backend, list(slot.keys.items())]
                for ident, slot in dimension.items()
            ]

        return {
            "prefixes": dump(self._prefixes),
            "clients": dump(self._clients),
            "keys": self._key_sketch.items(),
            "samples": self._samples,
            "backend": self._backend_total,
            "alerts": list(self._alerts),
        }

    def merge(self, snapshot: dict) -> None:
        def load(dimension: Dict[int, _Dimension], rows: list) -> None:
            for ident, requests, backend, keys in rows:
                slot = dimension.get(ident)
                if slot is None:
                    slot = dimension[ident] = _Dimension()
                slot.requests += requests
                slot.backend += backend
                for key, count in keys:
                    slot.keys[key] = slot.keys.get(key, 0) + count

        load(self._prefixes, snapshot.get("prefixes", ()))
        load(self._clients, snapshot.get("clients", ()))
        for key, count, _error in snapshot.get("keys", ()):
            self._key_sketch.offer(key, count)
        self._samples += snapshot.get("samples", 0)
        self._backend_total += snapshot.get("backend", 0)
        self._alerts.extend(snapshot.get("alerts", ()))

    def absorb(self, other: "ReferenceAttribution") -> None:
        """Fold a finalized per-run engine into this aggregate."""
        snapshot = other.snapshot()
        snapshot["alerts"] = []
        self.merge(snapshot)


class ReferenceRecorder(FlightRecorder):
    """A :class:`FlightRecorder` that records and attributes one request
    at a time; its campaign aggregate is a :class:`ReferenceAttribution`.

    ``group_of`` (vectorized, like the partitioner's ``replica_groups``)
    is called once per record, with that record's key alone.
    """

    def __init__(self, config: Optional[TraceConfig] = None, seed: Optional[int] = None) -> None:
        super().__init__(config, seed)
        self._ref = ReferenceAttribution(self._config, trial=-1)
        self._alerts: List[dict] = []

    @property
    def alerts(self) -> List[dict]:
        """Alerts kept in their own list, as the recorder once kept them."""
        return self._alerts

    def observe(
        self,
        columns: TrialColumns,
        mask: np.ndarray,
        *,
        m: int,
        chaos: bool = False,
        client_map: Optional[np.ndarray] = None,
        group_of: Optional[Callable] = None,
    ) -> dict:
        trial = int(columns.trial)
        attribution = (
            ReferenceAttribution(self._config, trial=trial)
            if self._config.attribution else None
        )
        cls, index = columns.event_order(mask)
        keep = cls > 0
        retry, index = cls[keep] == 2, index[keep]
        request = index.copy()
        request[retry] = columns.retry_request[index[retry]]
        node = columns.outcome[request]
        node[retry] = columns.retry_node[index[retry]]
        node[retry & (node < 0)] = UNAVAILABLE
        keep = node != RETRIED
        retry, index, request, node = retry[keep], index[keep], request[keep], node[keep]
        t = columns.time[request]
        t[retry] = columns.retry_time[index[retry]]
        sentinel = columns.dispatch_request.size
        dispatch_of = np.full(columns.time.size, sentinel)
        dispatch_of[columns.dispatch_request] = np.arange(sentinel)
        q = dispatch_of[request]
        start = np.append(columns.dispatch_start, np.nan)[q]
        wait = start - columns.time[request]
        service = np.append(columns.dispatch_departure, np.nan)[q] - start
        status = np.append(columns.dispatch_status, -1)[q]
        layer = shard = repeat(-1)
        if columns.layer is not None:
            layer, shard = columns.layer[request].tolist(), columns.shard[request].tolist()
        events = list(zip(
            request.tolist(), t.tolist(), columns.key[request].tolist(), node.tolist(),
            (retry + 1).tolist(), wait.tolist(), service.tolist(), status.tolist(), layer, shard,
        ))
        buckets = self._config.prefix_buckets
        for i, t, key, node, attempts, wait, service, status, layer, shard in events:
            hit, served, path = node == HIT, status == SERVED, node == HIT and layer >= 0
            record = {
                "type": "trace",
                "trial": trial,
                "i": i,
                "t": t,
                "key": key,
                "prefix": key * buckets // m,
                "client": int(client_map[key]) if client_map is not None else 0,
                "group": [int(g) for g in group_of([key])[0]] if group_of is not None else None,
                "hit": hit,
                "node": node if node >= 0 else None,
                "layer": layer if path else None,
                "shard": shard if path else None,
                "wait": wait if served else None,
                "service": service if served else None,
                "status": "hit" if hit else _STATUS.get(status, "unavailable"),
            }
            if chaos:
                record["attempts"] = attempts
            self._records.append(record)
            if attribution is not None:
                attribution.add(t, record["prefix"], record["client"], key, backend=not hit)
        self._seen += mask.size
        self._sampled += len(events)
        self._appended += len(events)
        suspects = None
        alerts: List[dict] = []
        if attribution is not None:
            suspects = attribution.finalize(columns.duration)
            alerts = list(attribution.alerts)
            self._ref.absorb(attribution)
        summary = {"trial": trial, "sampled": len(events), "suspects": suspects, "alerts": alerts}
        self._alerts.extend(alerts)
        self._summaries.append(summary)
        return summary

    def snapshot(self) -> dict:
        return {
            "schema": TRACE_SCHEMA_VERSION,
            "records": list(self._records),
            "appended": self._appended,
            "sampled": self._sampled,
            "seen": self._seen,
            "alerts": list(self._alerts),
            "summaries": list(self._summaries),
            "attribution": self._ref.snapshot(),
        }

    def merge_trial(self, other: "ReferenceRecorder") -> None:
        """Fold ``other`` in through its plain-data :meth:`snapshot`."""
        snapshot = other.snapshot()
        self._records.extend(snapshot.get("records", ()))
        self._appended += snapshot.get("appended", 0)
        self._sampled += snapshot.get("sampled", 0)
        self._seen += snapshot.get("seen", 0)
        self._alerts.extend(snapshot.get("alerts", ()))
        self._summaries.extend(snapshot.get("summaries", ()))
        attribution = snapshot.get("attribution")
        if attribution is not None:
            self._ref.merge(attribution)

    def suspects(self) -> Optional[dict]:
        if not self._config.attribution:
            return None
        return self._ref.suspects()

    @classmethod
    def from_export(
        cls,
        path: Union[str, Path],
        durations: Optional[Dict[int, float]] = None,
    ) -> "ReferenceRecorder":
        data = cls.read(path)
        manifest = data["manifest"] or {}
        config = TraceConfig(**manifest.get("config", {}))
        recorder = cls(config)
        records = data["records"]
        recorder._records.extend(records)
        recorder._appended = len(records) + int(manifest.get("evicted", 0))
        recorder._sampled = int(manifest.get("sampled", len(records)))
        recorder._seen = int(manifest.get("seen", len(records)))
        if not config.attribution:
            return recorder
        by_trial: Dict[int, List[dict]] = {}
        for record in records:
            by_trial.setdefault(record["trial"], []).append(record)
        for trial in sorted(by_trial):
            rows = by_trial[trial]
            engine = ReferenceAttribution(config, trial=trial)
            for record in rows:
                engine.add(
                    record["t"], record["prefix"], record["client"], record["key"],
                    backend=not record["hit"],
                )
            duration = (durations or {}).get(trial, rows[-1]["t"])
            suspects = engine.finalize(duration)
            alerts = list(engine.alerts)
            recorder._ref.absorb(engine)
            recorder._alerts.extend(alerts)
            recorder._summaries.append(
                {"trial": trial, "sampled": len(rows), "suspects": suspects, "alerts": alerts}
            )
        return recorder
