"""Attack attribution over one trial's traced requests, as column code.

The flight recorder (:mod:`repro.obs.trace`) hands :func:`attribute`
each trial's traced requests as columns — time, key-prefix bucket,
ground-truth client id, key and whether the back end served it — and
folds the result into its campaign aggregate.  The live recorder and
the offline replay of an exported trace
(:meth:`repro.obs.trace.FlightRecorder.from_export`, the ``repro
forensics`` path) call the same function.  It counts load, backend
(gain) and entropy contribution by **key-prefix bucket** and by
**client**, plus a space-saving top-k key sketch
(:class:`repro.obs.sketch.SpaceSaving`).  Two outputs:

- a ranked ``suspects`` block per run (and per campaign): the top-k
  prefixes, clients and keys by traced request share, each with its
  backend share (its contribution to the realised attack gain) and its
  normalised key-frequency entropy (a flat prefix is the Theorem-1
  fingerprint localised to one bucket);
- per-window ``attribution-concentration`` alerts
  (:data:`repro.obs.alerts.BUILTIN_RULES`): one prefix bucket taking
  more than the configured share of a window's traced requests.

Everything is a pure function of the traced columns: prefix and client
rows are integer counts per ``(ident, key)`` pair, which sum in any
order; entropy sums use :func:`math.fsum`; rankings break ties on the
smaller identifier; and the key sketch, whose state depends on offer
order, sees keys in event order and trials in trial order.  So suspects
blocks are bit-identical across engines and worker counts, and an
offline replay reproduces the live run's.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from .alerts import AlertEngine, BUILTIN_RULES
from .sketch import SpaceSaving

__all__ = ["Attribution", "attribute"]

#: Space-saving counters kept per ``top_k`` reported rows.
SKETCH_FACTOR = 8

#: One dimension's counts: ``(ident, key, requests, backend)`` columns,
#: one row per distinct ``(ident, key)`` pair, in ``(ident, key)`` order.
Table = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

#: Suspects block name -> row label of each dimension.
_DIMENSIONS = {"prefixes": "prefix", "clients": "client"}

_EMPTY: Table = (np.zeros(0, dtype=np.int64),) * 4


def _entropy(counts: List[int]) -> Optional[float]:
    """Normalised Shannon entropy of a row's key counts (``None`` if <2 keys).

    ``math.fsum`` makes the result independent of the counts' order.
    """
    distinct = len(counts)
    if distinct <= 1:
        return None
    total = sum(counts)
    sum_clogc = math.fsum(c * math.log(c) for c in counts if c > 1)
    return (math.log(total) - sum_clogc / total) / math.log(distinct)


def _runs(*columns: np.ndarray) -> np.ndarray:
    """Start of each run of equal rows across ``columns``."""
    size = columns[0].size
    head = np.zeros(size, dtype=bool)
    head[:1] = True
    for column in columns:
        head[1:] |= column[1:] != column[:-1]
    return np.flatnonzero(head)


def _table(ident, key, requests, backend) -> Table:
    """Sum ``requests`` and ``backend`` over each ``(ident, key)`` pair."""
    order = np.lexsort((key, ident))
    ident, key = ident[order], key[order]
    at = _runs(ident, key)
    return (
        ident[at], key[at],
        np.add.reduceat(requests[order], at), np.add.reduceat(backend[order], at),
    )


def _windows(config, trial: int, t, prefix, duration: float) -> List[dict]:
    """``attribution-concentration`` alerts of the trial's windows.

    A window is a run of requests with one ``floor(t / window)``; its top
    prefix has the most requests, ties to the smaller prefix.  The last
    window ends at ``min((index + 1) * window, duration)``.
    """
    window = np.floor_divide(t, config.window).astype(np.int64)
    starts = _runs(window)
    samples = np.diff(np.append(starts, window.size))
    seg = np.repeat(np.arange(starts.size), samples)
    # Each window's (prefix, count) pairs; its top pair sorts first on
    # (-count, prefix).
    order = np.lexsort((prefix, seg))
    seg, prefix = seg[order], prefix[order]
    at = _runs(seg, prefix)
    pair_seg, pair_prefix = seg[at], prefix[at]
    pair_count = np.diff(np.append(at, seg.size))
    top = np.lexsort((pair_prefix, -pair_count, pair_seg))
    top = top[_runs(pair_seg[top])]
    rule = AlertEngine([BUILTIN_RULES["attribution-concentration"]])
    last = starts.size - 1
    alerts: List[dict] = []
    for w, (index, count, top_prefix, top_count) in enumerate(zip(
        window[starts].tolist(), samples.tolist(),
        pair_prefix[top].tolist(), pair_count[top].tolist(),
    )):
        t_end = (index + 1) * config.window
        if w == last:
            t_end = min(t_end, duration)
        snapshot = {
            "trial": trial,
            "index": index,
            "t_end": t_end,
            "attribution_samples": count,
            "attribution_top_share": top_count / count,
            "attribution_top_prefix": top_prefix,
        }
        for alert in rule.evaluate(snapshot, config):
            # The rule engine emits generic records; a concentration
            # firing must also name the suspected attack prefix.
            alert["prefix"] = top_prefix
            alerts.append(alert)
    return alerts


class Attribution:
    """Attribution counts of one trial, or of a campaign's trials summed.

    Prefix and client counts are :data:`Table` columns; the campaign
    aggregate keeps each trial's and sums them when read.  The key
    sketch takes each trial's counters in trial order.
    """

    def __init__(self, top_k: int) -> None:
        self._top_k = top_k
        self._tables = {name: [_EMPTY] for name in _DIMENSIONS}
        self._sketch = SpaceSaving(SKETCH_FACTOR * top_k)
        self._samples = 0
        self._backend = 0

    def _counts(self, name: str) -> Table:
        tables = self._tables[name]
        if len(tables) > 1:
            tables[:] = [_table(*map(np.concatenate, zip(*tables)))]
        return tables[0]

    def fold(self, other: "Attribution") -> None:
        """Add a later trial's counts."""
        for name in _DIMENSIONS:
            self._tables[name].append(other._counts(name))
        for key, count, _error in other._sketch.items():
            self._sketch.offer(key, count)
        self._samples += other._samples
        self._backend += other._backend

    def _rank(self, name: str) -> List[dict]:
        label = _DIMENSIONS[name]
        ident, _key, requests, backend = self._counts(name)
        at = _runs(ident)
        totals, backends = np.add.reduceat(requests, at), np.add.reduceat(backend, at)
        ends = np.append(at[1:], ident.size)
        counts = requests.tolist()
        rows = []
        for row in np.lexsort((ident[at], -totals))[: self._top_k].tolist():
            row_requests, row_backend = int(totals[row]), int(backends[row])
            keys = counts[at[row]:ends[row]]
            rows.append({
                label: int(ident[at[row]]),
                "requests": row_requests,
                "share": row_requests / self._samples,
                "backend": row_backend,
                "backend_share": row_backend / self._backend if self._backend else None,
                "distinct_keys": len(keys),
                "entropy": _entropy(keys),
            })
        return rows

    def suspects(self) -> dict:
        """The ranked suspects block (plain data, deterministic order)."""
        total = self._samples
        if total == 0:
            return {"samples": 0, "prefixes": [], "clients": [], "keys": []}
        return {
            "samples": total,
            "prefixes": self._rank("prefixes"),
            "clients": self._rank("clients"),
            "keys": [
                {"key": key, "count": count, "error": error, "share": count / total}
                for key, count, error in self._sketch.top(self._top_k)
            ],
        }


def attribute(
    config, trial: int, t, prefix, client, key, backend, duration: float
) -> Tuple[Attribution, List[dict]]:
    """One trial's attribution and its concentration alerts.

    ``t``, ``prefix``, ``client``, ``key`` and ``backend`` (a boolean)
    are the trial's traced requests in event order; ``config`` is a
    :class:`repro.obs.trace.TraceConfig`, whose ``window``, ``top_k``,
    ``concentration_threshold`` and ``min_samples`` are read here.
    """
    key = np.asarray(key, dtype=np.int64)
    requests = np.ones(key.size, dtype=np.int64)
    backend = np.asarray(backend, dtype=np.int64)
    out = Attribution(config.top_k)
    offer = out._sketch.offer
    for k in key.tolist():
        offer(k)
    out._tables = {
        name: [_table(np.asarray(ident, dtype=np.int64), key, requests, backend)]
        for name, ident in zip(_DIMENSIONS, (prefix, client))
    }
    out._samples, out._backend = key.size, int(backend.sum())
    alerts = _windows(
        config, int(trial), np.asarray(t, dtype=float), np.asarray(prefix, dtype=np.int64),
        duration,
    )
    return out, alerts
