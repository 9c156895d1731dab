"""Causal request tracing: deterministic sampling + flight recorder.

The monitor (:mod:`repro.obs.monitor`) says *that* a bound is violated;
this module records *which requests* did it.  Three pieces:

- **hash-based deterministic samplers** — the default
  :class:`HashSampler` keys a BLAKE2b MAC on ``(seed, trial)`` and
  admits a request when the 64-bit digest of ``(index, key)`` falls
  under ``sample * 2^64``.  No call ever touches a
  :class:`numpy.random.Generator`, so attaching a tracer leaves every
  engine RNG stream — and therefore every golden fixture —
  byte-identical.  Samplers are registry components (namespace
  ``sampler``) so scenario specs can select them by name.
- a bounded **flight-recorder ring buffer** (:class:`FlightRecorder`) of
  per-request causal records: key, prefix bucket, ground-truth client,
  replica group, chosen node, cache-tree ``(layer, shard)`` attribution,
  queue wait, service time, and chaos/failover annotations, exported as
  schema-versioned JSONL.
- the streaming **attribution engine**
  (:mod:`repro.obs.attribution`) each run feeds, producing the ranked
  ``suspects`` block and ``attribution-concentration`` alerts that land
  in monitor run summaries.

Determinism contract (mirrors the monitor's): ``trace=None`` is
byte-identical to an untraced run; with tracing on, per-trial recorders
run inside workers, snapshot, and merge in trial order
(:meth:`FlightRecorder.merge_trial`), so the trace JSONL and every
suspects block are bit-identical across worker counts *and* equal to
the per-event reference scheduler's (``tests/test_obs_trace.py`` pins
both).
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from hashlib import blake2b
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

import numpy as np

from ..exceptions import ConfigurationError
from ..rng import DEFAULT_SEED
from ..scenario.registry import register_component
from .attribution import AttributionEngine
from .events import _coerce

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "TraceConfig",
    "HashSampler",
    "StrideSampler",
    "FlightRecorder",
    "NullRecorder",
    "NULL_RECORDER",
    "as_trace",
]

#: Version stamp written into every trace-manifest record.  The trace
#: log is versioned independently of the monitor's event-log schema
#: (:data:`repro.obs.events.SCHEMA_VERSION`) — that version is embedded
#: in golden fixtures and must not move when the trace format evolves.
TRACE_SCHEMA_VERSION = 1

_PACK = struct.Struct("<qq").pack


def _mac_key(seed: Optional[int], trial: int) -> bytes:
    """The 32-byte BLAKE2b MAC key for ``(seed, trial)``."""
    root = DEFAULT_SEED if seed is None else int(seed)
    return blake2b(
        _PACK(root, int(trial)), digest_size=32, person=b"repro-trace"
    ).digest()


class HashSampler:
    """Keyed-BLAKE2b threshold sampler over ``(seed, key, index)``.

    ``admit(key, index)`` is True when
    ``BLAKE2b(index || key, key=MAC(seed, trial)) < sample * 2^64`` —
    a pure function of the identifiers, consuming no RNG stream.  The
    admitted fraction converges to ``sample`` (hypothesis-tested) and
    the decision for a given request never depends on how many other
    requests were traced.
    """

    name = "hash"

    def __init__(self, seed: Optional[int], sample: float, trial: int = 0) -> None:
        self._sample = float(sample)
        self._key = _mac_key(seed, trial)
        # Threshold on the digest as a 64-bit little-endian fraction.
        self._cut = int(self._sample * float(2**64))

    def admit(self, key: int, index: int) -> bool:
        """Whether the request at stream position ``index`` is traced."""
        if self._sample >= 1.0:
            return True
        if self._cut <= 0:
            return False
        digest = blake2b(
            _PACK(int(index), int(key)), digest_size=8, key=self._key
        ).digest()
        return int.from_bytes(digest, "little") < self._cut

    def mask(self, keys: np.ndarray, start: int = 0) -> np.ndarray:
        """Vectorised admit decisions for a key stream."""
        if self._sample >= 1.0:
            return np.ones(len(keys), dtype=bool)
        if self._cut <= 0:
            return np.zeros(len(keys), dtype=bool)
        # Key the hash once and copy its state per request; compare all
        # the little-endian digests against the cut in one pass.
        keyed = blake2b(digest_size=8, key=self._key)
        pack = _PACK
        digests = []
        append = digests.append
        for i, k in enumerate(np.asarray(keys).tolist(), start):
            h = keyed.copy()
            h.update(pack(i, k))
            append(h.digest())
        return np.frombuffer(b"".join(digests), dtype="<u8") < np.uint64(self._cut)


class StrideSampler:
    """Every ``round(1/sample)``-th request, with a keyed phase offset.

    Cheaper than hashing per request but correlated with arrival order;
    the hash sampler is the default.  The phase is derived from the same
    ``(seed, trial)`` MAC so two trials do not trace the same stream
    positions.
    """

    name = "stride"

    def __init__(self, seed: Optional[int], sample: float, trial: int = 0) -> None:
        self._sample = float(sample)
        if self._sample >= 1.0:
            self._stride = 1
        elif self._sample <= 0.0:
            self._stride = 0
        else:
            self._stride = max(1, round(1.0 / self._sample))
        digest = blake2b(b"stride-phase", digest_size=8, key=_mac_key(seed, trial))
        self._phase = (
            int.from_bytes(digest.digest(), "little") % self._stride
            if self._stride > 1
            else 0
        )

    def admit(self, key: int, index: int) -> bool:
        del key
        if self._stride == 0:
            return False
        return (int(index) - self._phase) % self._stride == 0

    def mask(self, keys: np.ndarray, start: int = 0) -> np.ndarray:
        n = len(keys)
        if self._stride == 0:
            return np.zeros(n, dtype=bool)
        if self._stride == 1:
            return np.ones(n, dtype=bool)
        indices = np.arange(start, start + n, dtype=np.int64)
        return (indices - self._phase) % self._stride == 0


#: Sampler kinds selectable via :attr:`TraceConfig.sampler`.
SAMPLERS: Dict[str, type] = {
    HashSampler.name: HashSampler,
    StrideSampler.name: StrideSampler,
}


@dataclass(frozen=True)
class TraceConfig:
    """Plain-data trace configuration (picklable, spawn-safe).

    Parameters
    ----------
    sample:
        Fraction of requests to trace, in ``[0, 1]``.  ``1.0`` traces
        everything (tests); production-shaped runs use ~``0.01``.
    sampler:
        Sampler kind (:data:`SAMPLERS`): ``"hash"`` (default, keyed
        BLAKE2b threshold) or ``"stride"``.
    capacity:
        Flight-recorder ring bound: the most recent ``capacity`` traced
        records are retained, older ones are evicted (and counted).
    prefix_buckets:
        Key-prefix granularity for attribution: key ``k`` lands in
        bucket ``k * prefix_buckets // m``.
    top_k:
        Rows per dimension in the ranked suspects block; the
        space-saving key sketch keeps ``8 * top_k`` counters.
    window:
        Attribution window width in simulated seconds (aligns with the
        monitor's default so alerts line up on the same timeline).
    attribution:
        Disable to record causal traces without the streaming
        aggregation (the suspects block and alerts disappear).
    concentration_threshold:
        The ``attribution-concentration`` rule fires when one prefix
        bucket takes at least this share of a window's traced requests.
    min_samples:
        Windows with fewer traced requests than this never fire the
        concentration rule (tiny windows are trivially concentrated).
    """

    sample: float = 1.0
    sampler: str = "hash"
    capacity: int = 65536
    prefix_buckets: int = 64
    top_k: int = 8
    window: float = 0.1
    attribution: bool = True
    concentration_threshold: float = 0.5
    min_samples: int = 32

    def __post_init__(self) -> None:
        if not 0.0 <= self.sample <= 1.0:
            raise ConfigurationError(
                f"sample must be in [0, 1], got {self.sample}"
            )
        if self.sampler not in SAMPLERS:
            raise ConfigurationError(
                f"unknown sampler {self.sampler!r}; "
                f"choose from {sorted(SAMPLERS)}"
            )
        if self.capacity < 1:
            raise ConfigurationError(
                f"capacity must be positive, got {self.capacity}"
            )
        if self.prefix_buckets < 1:
            raise ConfigurationError(
                f"prefix_buckets must be positive, got {self.prefix_buckets}"
            )
        if self.top_k < 1:
            raise ConfigurationError(f"top_k must be positive, got {self.top_k}")
        if self.window <= 0:
            raise ConfigurationError(f"window must be positive, got {self.window}")
        if not 0.0 < self.concentration_threshold <= 1.0:
            raise ConfigurationError(
                "concentration_threshold must be in (0, 1], got "
                f"{self.concentration_threshold}"
            )
        if self.min_samples < 0:
            raise ConfigurationError(
                f"min_samples must be non-negative, got {self.min_samples}"
            )

    def make_sampler(self, seed: Optional[int], trial: int):
        """Instantiate the configured sampler for one trial."""
        return SAMPLERS[self.sampler](seed, self.sample, trial)

    def to_dict(self) -> dict:
        """JSON-able form for the trace manifest."""
        return {
            "sample": self.sample,
            "sampler": self.sampler,
            "capacity": self.capacity,
            "prefix_buckets": self.prefix_buckets,
            "top_k": self.top_k,
            "window": self.window,
            "attribution": self.attribution,
            "concentration_threshold": self.concentration_threshold,
            "min_samples": self.min_samples,
        }


def _build_hash_trace(ctx, **params) -> TraceConfig:
    del ctx
    return TraceConfig(sampler="hash", **params)


def _build_stride_trace(ctx, **params) -> TraceConfig:
    del ctx
    return TraceConfig(sampler="stride", **params)


register_component(
    "sampler", "hash", example={"sample": 0.5}, builder=_build_hash_trace
)(HashSampler)
register_component(
    "sampler", "stride", example={"sample": 0.5}, builder=_build_stride_trace
)(StrideSampler)


class FlightRecorder:
    """Bounded causal-trace recorder + per-run attribution aggregation.

    Engine protocol (mirrors :class:`~repro.obs.monitor.LoadMonitor`):
    :meth:`begin_run` -> :meth:`sample_mask` -> :meth:`record_hit` /
    :meth:`record_backend` / :meth:`record_unavailable` per admitted
    request -> :meth:`finalize`, which returns the trial's suspects
    block and concentration alerts for the engine to hand to the
    monitor.  Serial campaigns reuse one recorder across trials;
    parallel campaigns build one per trial inside the worker and merge
    snapshots in trial order.
    """

    enabled = True

    def __init__(
        self, config: Optional[TraceConfig] = None, seed: Optional[int] = None
    ) -> None:
        self._config = config if config is not None else TraceConfig()
        self._seed = seed
        # Campaign-level state (fed by finalize() or merge_trial()).
        self._records: List[dict] = []
        self._appended = 0
        self._sampled = 0
        self._seen = 0
        self._alerts: List[dict] = []
        self._summaries: List[dict] = []
        self._cum = AttributionEngine(self._config, trial=-1)
        self._trials_merged = 0
        # Per-run state.
        self._run_open = False
        self._trial = 0
        self._m: Optional[int] = None
        self._chaos_run = False
        self._client_map: Optional[np.ndarray] = None
        self._group_of: Optional[Callable] = None
        self._run_attr: Optional[AttributionEngine] = None
        self._run_sampled = 0

    # -- introspection -----------------------------------------------------

    @property
    def config(self) -> TraceConfig:
        """The (picklable) configuration; workers rebuild from this."""
        return self._config

    @property
    def records(self) -> List[dict]:
        """Retained trace records, oldest first (live reference)."""
        return self._records

    @property
    def sampled(self) -> int:
        """Requests admitted by the sampler across all runs."""
        return self._sampled

    @property
    def seen(self) -> int:
        """Requests offered to the sampler across all runs."""
        return self._seen

    @property
    def evicted(self) -> int:
        """Traced records pushed out of the bounded ring."""
        return self._appended - len(self._records)

    @property
    def alerts(self) -> List[dict]:
        """``attribution-concentration`` alert records, in order."""
        return self._alerts

    @property
    def summaries(self) -> List[dict]:
        """Per-trial trace summaries, in trial order."""
        return self._summaries

    # -- engine protocol ---------------------------------------------------

    def begin_run(
        self,
        trial: int = 0,
        m: int = 1,
        chaos: bool = False,
        client_map: Optional[np.ndarray] = None,
        group_of: Optional[Callable] = None,
    ) -> None:
        """Start ingesting one event-driven run.

        ``m`` sizes the prefix buckets, ``client_map`` (key -> ground
        truth client id, from the workload) tags records, ``group_of``
        (the cluster's ``replica_group``) resolves replica groups for
        traced records.  ``chaos=True`` adds an ``attempts`` field to
        every record of the run; chaos-free records carry none.
        """
        if self._run_open:
            raise ConfigurationError(
                "begin_run called while a run is open; finalize() it first"
            )
        self._run_open = True
        self._trial = int(trial)
        self._m = int(m)
        self._chaos_run = bool(chaos)
        self._client_map = client_map
        self._group_of = group_of
        self._run_attr = (
            AttributionEngine(self._config, trial=self._trial)
            if self._config.attribution
            else None
        )
        self._run_sampled = 0

    def sample_mask(self, keys: np.ndarray) -> np.ndarray:
        """Admit decisions for the run's key stream (consumes no RNG)."""
        sampler = self._config.make_sampler(self._seed, self._trial)
        mask = sampler.mask(np.asarray(keys))
        self._seen += len(mask)
        return mask

    def _emit(self, record: dict) -> dict:
        self._sampled += 1
        self._run_sampled += 1
        self._appended += 1
        records = self._records
        records.append(record)
        if len(records) > self._config.capacity:
            del records[0]
        if self._run_attr is not None:
            self._run_attr.add(
                record["t"],
                record["prefix"],
                record["client"],
                record["key"],
                backend=not record["hit"],
            )
        return record

    def _base(self, t: float, key: int, index: int, hit: bool) -> dict:
        key = int(key)
        record = {
            "type": "trace",
            "trial": self._trial,
            "i": int(index),
            "t": float(t),
            "key": key,
            "prefix": key * self._config.prefix_buckets // self._m,
            "client": (
                int(self._client_map[key]) if self._client_map is not None else 0
            ),
            "group": (
                [int(node) for node in self._group_of(key)]
                if self._group_of is not None
                else None
            ),
            "hit": bool(hit),
            "node": None,
            "layer": None,
            "shard": None,
            "wait": None,
            "service": None,
            "status": "hit" if hit else "served",
        }
        if self._chaos_run:
            record["attempts"] = 1
        return record

    def record_hit(
        self,
        t: float,
        key: int,
        index: int,
        layer: Optional[int] = None,
        shard: Optional[int] = None,
    ) -> dict:
        """Trace one front-end cache hit (with its tree path, if any)."""
        record = self._base(t, key, index, hit=True)
        if layer is not None:
            record["layer"] = int(layer)
            record["shard"] = int(shard) if shard is not None else None
        return self._emit(record)

    def record_backend(
        self, t: float, key: int, index: int, node: int, attempts: int = 1
    ) -> dict:
        """Trace one back-end dispatch; the queue layer fills the rest.

        Returns the live record: the event kernel completes it with
        ``wait`` / ``service`` or flips ``status`` to ``dropped`` /
        ``lost``.
        """
        record = self._base(t, key, index, hit=False)
        record["node"] = int(node)
        if self._chaos_run:
            record["attempts"] = int(attempts)
        return self._emit(record)

    def record_unavailable(
        self, t: float, key: int, index: int, attempts: int
    ) -> dict:
        """Trace one request whose every replica was down (chaos runs)."""
        record = self._base(t, key, index, hit=False)
        record["status"] = "unavailable"
        record["attempts"] = int(attempts)
        return self._emit(record)

    def finalize(self, duration: float) -> Optional[dict]:
        """Close the run; returns ``{trial, sampled, suspects, alerts}``.

        The engine forwards ``suspects`` and ``alerts`` to the monitor
        (when one is attached) so they land in the run summary and the
        event log; either way they fold into this recorder's campaign
        aggregate.
        """
        if not self._run_open:
            return None
        self._run_open = False
        suspects = None
        alerts: List[dict] = []
        if self._run_attr is not None:
            suspects = self._run_attr.finalize(duration)
            alerts = list(self._run_attr.alerts)
            self._cum.absorb(self._run_attr)
        summary = {
            "trial": self._trial,
            "sampled": self._run_sampled,
            "suspects": suspects,
            "alerts": alerts,
        }
        self._alerts.extend(alerts)
        self._summaries.append(summary)
        self._run_attr = None
        return summary

    # -- snapshot / merge --------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-data dump a worker ships back for trial-order merging."""
        return {
            "schema": TRACE_SCHEMA_VERSION,
            "records": list(self._records),
            "appended": self._appended,
            "sampled": self._sampled,
            "seen": self._seen,
            "alerts": list(self._alerts),
            "summaries": list(self._summaries),
            "attribution": self._cum.snapshot(),
        }

    def merge_trial(self, snapshot: dict) -> None:
        """Fold one per-trial recorder snapshot into this recorder.

        MUST be called in trial order (the parallel executor guarantees
        it); the ring keeps the most recent ``capacity`` records across
        the merged stream, so the retained set — and the exported JSONL
        — is identical to a serial run's.
        """
        records = self._records
        records.extend(snapshot.get("records", ()))
        self._appended += snapshot.get("appended", 0)
        overflow = len(records) - self._config.capacity
        if overflow > 0:
            del records[:overflow]
        self._sampled += snapshot.get("sampled", 0)
        self._seen += snapshot.get("seen", 0)
        self._alerts.extend(snapshot.get("alerts", ()))
        self._summaries.extend(snapshot.get("summaries", ()))
        attribution = snapshot.get("attribution")
        if attribution is not None:
            self._cum.merge(attribution)
        self._trials_merged += 1

    # -- reporting ---------------------------------------------------------

    def suspects(self) -> Optional[dict]:
        """Campaign-level ranked suspects across all runs/trials."""
        if not self._config.attribution:
            return None
        return self._cum.suspects()

    def summary(self) -> dict:
        """Campaign-level aggregate view (what the forensics CLI renders)."""
        return {
            "schema": TRACE_SCHEMA_VERSION,
            "config": self._config.to_dict(),
            "seen": self._seen,
            "sampled": self._sampled,
            "retained": len(self._records),
            "evicted": self.evicted,
            "trials": len(self._summaries),
            "alerts": len(self._alerts),
            "suspects": self.suspects(),
        }

    def write(self, path: Union[str, Path]) -> Path:
        """Write the trace as JSONL: one manifest line, then records.

        Sorted-key JSON with ``allow_nan=False``, like the event log —
        a seeded run's trace file is byte-identical across hosts and
        worker counts.
        """
        path = Path(path)
        head = {
            "type": "trace-manifest",
            "schema": TRACE_SCHEMA_VERSION,
            "config": self._config.to_dict(),
            "seen": self._seen,
            "sampled": self._sampled,
            "evicted": self.evicted,
        }
        lines = [
            json.dumps(record, sort_keys=True, allow_nan=False, default=_coerce)
            for record in [head] + self._records
        ]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    @staticmethod
    def read(path: Union[str, Path]) -> dict:
        """Load a trace file: ``{"manifest": dict, "records": [dict]}``."""
        manifest: Optional[dict] = None
        records: List[dict] = []
        for line in Path(path).read_text(encoding="utf-8").splitlines():
            if not line.strip():
                continue
            record = json.loads(line)
            if record.get("type") == "trace-manifest":
                manifest = record
            else:
                records.append(record)
        return {"manifest": manifest, "records": records}

    @classmethod
    def from_export(
        cls,
        path: Union[str, Path],
        durations: Optional[Dict[int, float]] = None,
    ) -> "FlightRecorder":
        """Rebuild an offline recorder from an exported trace file.

        Attribution is recomputed per trial over the retained records
        (:mod:`repro.obs.attribution` is a pure function of the record
        stream), so the offline recorder's suspects, alerts and
        summaries match the live run's exactly when the ring never
        evicted — the ``repro forensics`` path.  ``durations`` maps trial -> run duration
        (from the event log's ``run-summary`` records) so each trial's
        final attribution window closes where the live run's did;
        without it the trial's last record time is used, which can only
        differ in whether a trailing under-populated window alerts.
        """
        data = cls.read(path)
        manifest = data["manifest"] or {}
        config = TraceConfig(**manifest.get("config", {}))
        recorder = cls(config)
        records = data["records"]
        recorder._records = list(records)
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
            engine = AttributionEngine(config, trial=trial)
            for record in rows:
                engine.add(
                    record["t"],
                    record["prefix"],
                    record["client"],
                    record["key"],
                    backend=not record["hit"],
                )
            duration = (durations or {}).get(trial, rows[-1]["t"])
            suspects = engine.finalize(duration)
            alerts = list(engine.alerts)
            recorder._cum.absorb(engine)
            recorder._alerts.extend(alerts)
            recorder._summaries.append(
                {
                    "trial": trial,
                    "sampled": len(rows),
                    "suspects": suspects,
                    "alerts": alerts,
                }
            )
        return recorder


class NullRecorder(FlightRecorder):
    """The disabled recorder: records nothing, allocates nothing per call.

    Engines guard on ``trace is None`` (or ``trace.enabled``), so the
    null recorder keeps a run byte-identical to an untraced one — the
    same contract the null monitor keeps.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__(TraceConfig())

    def begin_run(self, trial=0, m=1, chaos=False, client_map=None, group_of=None):
        pass

    def sample_mask(self, keys) -> np.ndarray:
        return np.zeros(len(keys), dtype=bool)

    def record_hit(self, t, key, index, layer=None, shard=None) -> dict:
        return {}

    def record_backend(self, t, key, index, node, attempts=1) -> dict:
        return {}

    def record_unavailable(self, t, key, index, attempts) -> dict:
        return {}

    def finalize(self, duration) -> Optional[dict]:
        return None

    def merge_trial(self, snapshot) -> None:
        pass

    def snapshot(self) -> dict:
        return {
            "schema": TRACE_SCHEMA_VERSION,
            "records": [],
            "appended": 0,
            "sampled": 0,
            "seen": 0,
            "alerts": [],
            "summaries": [],
            "attribution": None,
        }


#: Process-wide shared no-op recorder.
NULL_RECORDER = NullRecorder()


def as_trace(trace: Optional[FlightRecorder]) -> FlightRecorder:
    """Normalise an optional ``trace=`` argument: ``None`` -> no-op."""
    return NULL_RECORDER if trace is None else trace
