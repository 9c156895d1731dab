"""Structured event log: append-only records, one JSON object per line.

The online monitor emits three record families — a **run manifest**
(configuration provenance), **window snapshots** (one per non-empty
simulated-time window) and **alert records** (rule firings) — plus a
closing **run summary**.  Every record carries a ``type`` and the log
carries a ``schema`` version in its manifest, so downstream consumers
can evolve safely.

Records contain only simulated-state values (no wall-clock timestamps),
so a log produced by a seeded run is byte-identical across hosts and
worker counts once written with :meth:`EventLog.write`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterator, List, Union

__all__ = ["SCHEMA_VERSION", "EventLog"]

#: Version stamp written into every manifest record.  Bump when a record
#: family gains/loses/renames fields.  v2: chaos runs add a
#: ``node-event`` family and chaos-only window/summary fields
#: (``unavailable``, ``nodes_down``, ``effective_d``, ``degraded_bound``).
SCHEMA_VERSION = 2

#: Record families the log accepts.
RECORD_TYPES = ("manifest", "window", "alert", "run-summary", "node-event")


class EventLog:
    """In-memory ordered record list with a JSONL writer.

    The log is deliberately dumb: it validates only that each record is
    a dict with a known ``type``; the monitor owns record structure.
    Being a plain list makes per-trial logs picklable — worker-side
    monitors ship their records back in trial order and the campaign
    log concatenates them.
    """

    def __init__(self) -> None:
        self._records: List[dict] = []

    @property
    def records(self) -> List[dict]:
        """The record list (live reference; treat as read-only)."""
        return self._records

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[dict]:
        return iter(self._records)

    def emit(self, record: dict) -> dict:
        """Append one record; returns it for chaining."""
        if not isinstance(record, dict):
            raise TypeError(f"event records are dicts, got {type(record).__name__}")
        kind = record.get("type")
        if kind not in RECORD_TYPES:
            raise ValueError(
                f"unknown event record type {kind!r}; expected one of {RECORD_TYPES}"
            )
        self._records.append(record)
        return record

    def write(self, path: Union[str, Path]) -> Path:
        """Write the log as JSONL (one sorted-key JSON object per line)."""
        path = Path(path)
        lines = [
            json.dumps(record, sort_keys=True, allow_nan=False, default=_coerce)
            for record in self._records
        ]
        path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
        return path

    @classmethod
    def read(cls, path: Union[str, Path]) -> "EventLog":
        """Load a JSONL log written by :meth:`write`."""
        log = cls()
        for line in Path(path).read_text(encoding="utf-8").splitlines():
            if line.strip():
                log.emit(json.loads(line))
        return log


def _coerce(value: object) -> object:
    """JSON fallback for numpy scalars (mirrors the metrics exporter)."""
    method = getattr(value, "item", None)
    if callable(method):
        return method()
    raise TypeError(f"not JSON serializable: {value!r}")  # pragma: no cover
