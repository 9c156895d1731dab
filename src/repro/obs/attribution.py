"""Streaming attack attribution over the sampled trace stream.

The flight recorder (:mod:`repro.obs.trace`) feeds every traced request
into an :class:`AttributionEngine`, which aggregates load, backend
(gain) and entropy contribution by **key-prefix bucket** and by
**ground-truth client id**, plus a space-saving top-k key sketch
(:class:`repro.obs.sketch.SpaceSaving`) — the per-prefix analogue of the
monitor's window statistics.  Two outputs:

- a ranked ``suspects`` block per run (and per campaign): the top-k
  prefixes, clients and keys by traced request share, each with its
  backend share (its contribution to the realised attack gain) and its
  normalised key-frequency entropy (a flat prefix is the Theorem-1
  fingerprint localised to one bucket);
- per-window ``attribution-concentration`` alerts
  (:data:`repro.obs.alerts.BUILTIN_RULES`): one prefix bucket taking
  more than the configured share of a window's traced requests.

Everything is a pure function of the traced record sequence: entropy
sums use :func:`math.fsum` (order-independent rounding) and rankings
break ties on the smaller identifier, so suspects blocks are
bit-identical across engines and worker counts — and an offline replay
of an exported trace file
(:meth:`repro.obs.trace.FlightRecorder.from_export`, the ``repro
forensics`` path) reproduces the live run's.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from .alerts import AlertEngine, BUILTIN_RULES
from .sketch import SpaceSaving

__all__ = ["AttributionEngine"]

#: Space-saving counters kept per ``top_k`` reported rows.
SKETCH_FACTOR = 8


def _entropy(counts: Dict[int, int]) -> Optional[float]:
    """Normalised Shannon entropy of a key-count map (``None`` if <2 keys).

    ``math.fsum`` makes the result independent of dict insertion order,
    so serial and merged aggregates agree bit-for-bit.
    """
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


class AttributionEngine:
    """Per-run (or campaign-merged) attribution aggregate.

    Parameters
    ----------
    config:
        A :class:`repro.obs.trace.TraceConfig`; ``window``,
        ``top_k``, ``concentration_threshold`` and ``min_samples`` are
        read here.
    trial:
        Trial index stamped into alert records (``-1`` for the
        campaign-level aggregate, which never windows).
    """

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
        # Open-window state (simulated-clock tumbling windows).
        self._win_index: Optional[int] = None
        self._win_prefix: Dict[int, int] = {}
        self._win_samples = 0

    @property
    def samples(self) -> int:
        """Traced requests aggregated so far."""
        return self._samples

    @property
    def alerts(self) -> List[dict]:
        """``attribution-concentration`` alert records, in order."""
        return self._alerts

    # -- streaming ingestion ----------------------------------------------

    def add(
        self, t: float, prefix: int, client: int, key: int, backend: bool
    ) -> None:
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
            # The rule engine emits generic records; a concentration
            # firing must also name the suspected attack prefix.
            alert["prefix"] = top_prefix
        self._alerts.extend(alerts)

    def finalize(self, duration: float) -> dict:
        """Close the open window; returns the run's suspects block."""
        self._close_window(final_t=duration)
        return self.suspects()

    # -- reporting ---------------------------------------------------------

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
        """The ranked suspects block (plain data, deterministic order)."""
        total = self._samples
        if total == 0:
            return {"samples": 0, "prefixes": [], "clients": [], "keys": []}
        return {
            "samples": total,
            "prefixes": self._rank(self._prefixes, "prefix"),
            "clients": self._rank(self._clients, "client"),
            "keys": [
                {
                    "key": key,
                    "count": count,
                    "error": error,
                    "share": count / total,
                }
                for key, count, error in self._key_sketch.top(self._config.top_k)
            ],
        }

    # -- snapshot / merge --------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-data dump for worker -> campaign merging."""
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
        """Fold one snapshot in (trial order, like the monitor merge)."""
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

    def absorb(self, other: "AttributionEngine") -> None:
        """Fold a finalized per-run engine into this aggregate (serial path)."""
        self.merge(
            {
                "prefixes": [
                    [ident, slot.requests, slot.backend, list(slot.keys.items())]
                    for ident, slot in other._prefixes.items()
                ],
                "clients": [
                    [ident, slot.requests, slot.backend, list(slot.keys.items())]
                    for ident, slot in other._clients.items()
                ],
                "keys": other._key_sketch.items(),
                "samples": other._samples,
                "backend": other._backend_total,
                "alerts": [],
            }
        )

