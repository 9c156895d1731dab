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
- **attribution** (:mod:`repro.obs.attribution`) of each run's traced
  requests as columns, producing the ranked ``suspects`` block and
  ``attribution-concentration`` alerts that land in monitor run
  summaries; the offline replay of an exported trace
  (:meth:`FlightRecorder.from_export`) calls the same function.

Determinism contract (mirrors the monitor's): ``trace=None`` is
byte-identical to an untraced run; with tracing on, each trial's
recorder runs inside its worker, comes back whole, and merges in trial
order (:meth:`FlightRecorder.merge_trial`), so the trace JSONL and every
suspects block are bit-identical across worker counts *and* equal to
the per-event reference scheduler's (``tests/test_obs_trace.py`` pins
both).
"""

from __future__ import annotations

import json
import struct
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from hashlib import blake2b
from itertools import repeat
from pathlib import Path
from typing import Callable, Deque, Dict, List, Optional, Union

import numpy as np

from ..exceptions import ConfigurationError
from ..rng import DEFAULT_SEED
from ..scenario.registry import register_component
from .attribution import Attribution, attribute
from .columns import DROPPED, HIT, LOST, SERVED, TrialColumns
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

#: Trace ``status`` of a dispatch.
_STATUS = {SERVED: "served", DROPPED: "dropped", LOST: "lost"}


def _mac_key(seed: Optional[int], trial: int) -> bytes:
    """The 32-byte BLAKE2b MAC key for ``(seed, trial)``."""
    root = DEFAULT_SEED if seed is None else int(seed)
    return blake2b(
        _PACK(root, int(trial)), digest_size=32, person=b"repro-trace"
    ).digest()


# BLAKE2b (RFC 7693) as NumPy columns.  A sampled request hashes one
# 16-byte block under a 32-byte MAC key: the key block is compressed
# once per trial in Python ints (:func:`_request_state`), then the final
# block of every request is compressed at once over ``uint64`` columns
# (:func:`_digest_body`).  The digests equal ``hashlib``'s bit for bit.

_M64 = 2**64 - 1

_IV = (
    0x6A09E667F3BCC908, 0xBB67AE8584CAA73B, 0x3C6EF372FE94F82B,
    0xA54FF53A5F1D36F1, 0x510E527FADE682D1, 0x9B05688C2B3E6C1F,
    0x1F83D9ABFB41BD6B, 0x5BE0CD19137E2179,
)

_SIGMA = (
    (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
    (14, 10, 4, 8, 9, 15, 13, 6, 1, 12, 0, 2, 11, 7, 5, 3),
    (11, 8, 12, 0, 5, 2, 15, 13, 10, 14, 3, 6, 7, 1, 9, 4),
    (7, 9, 3, 1, 13, 12, 11, 14, 2, 6, 5, 10, 4, 0, 15, 8),
    (9, 0, 5, 7, 2, 4, 10, 15, 14, 1, 11, 12, 6, 8, 3, 13),
    (2, 12, 6, 10, 0, 11, 8, 3, 4, 13, 7, 5, 15, 14, 1, 9),
    (12, 5, 1, 15, 14, 13, 4, 10, 0, 7, 6, 3, 9, 2, 8, 11),
    (13, 11, 7, 14, 12, 1, 3, 9, 5, 0, 15, 4, 8, 6, 2, 10),
    (6, 15, 14, 9, 11, 3, 0, 8, 12, 2, 13, 7, 1, 4, 10, 5),
    (10, 2, 8, 4, 7, 6, 1, 5, 15, 11, 9, 14, 3, 12, 13, 0),
)

#: The four column G's, then the four diagonal G's, of every round.
_QUARTERS = (
    (0, 4, 8, 12), (1, 5, 9, 13), (2, 6, 10, 14), (3, 7, 11, 15),
    (0, 5, 10, 15), (1, 6, 11, 12), (2, 7, 8, 13), (3, 4, 9, 14),
)


@lru_cache(maxsize=None)
def _steps() -> tuple:
    """BLAKE2b's 12 rounds as ``(op, target, operand)`` steps.

    ``op`` is ``"add"`` or ``"xor"`` (``w[target] op= w[operand]``) or
    ``"rot"`` (rotate ``w[target]`` right by ``operand`` bits), over the
    working words ``w[0..15]`` followed by the message words
    ``w[16..31]``.
    """
    steps = []
    for r in range(12):
        sigma = _SIGMA[r % 10]
        for g, (a, b, c, d) in enumerate(_QUARTERS):
            x, y = 16 + sigma[2 * g], 16 + sigma[2 * g + 1]
            steps += [
                ("add", a, b), ("add", a, x), ("xor", d, a), ("rot", d, 32),
                ("add", c, d), ("xor", b, c), ("rot", b, 24),
                ("add", a, b), ("add", a, y), ("xor", d, a), ("rot", d, 16),
                ("add", c, d), ("xor", b, c), ("rot", b, 63),
            ]
    return tuple(steps)


def _request_state(mac: bytes) -> List[int]:
    """The 16 working words every request's final block starts from.

    The parameter block sets a ``len(mac)``-byte key and an 8-byte
    digest; the zero-padded key block is compressed here, in Python
    ints, with byte counter 128 and no final flag.  The request block
    then runs with counter 144 and the final flag set.
    """
    h = list(_IV)
    h[0] ^= 0x01010000 ^ (len(mac) << 8) ^ 8
    w = h + list(_IV) + list(struct.unpack("<16Q", mac.ljust(128, b"\0")))
    w[12] ^= 128
    for op, i, j in _steps():
        if op == "add":
            w[i] = (w[i] + w[j]) & _M64
        elif op == "xor":
            w[i] ^= w[j]
        else:
            w[i] = (w[i] >> j | w[i] << (64 - j)) & _M64
    v = [h[i] ^ w[i] ^ w[i + 8] for i in range(8)] + list(_IV)
    v[12] ^= 144
    v[14] ^= _M64
    return v


@lru_cache(maxsize=None)
def _digest_body():
    """Generate, compile and cache the per-request BLAKE2b compression.

    The generated ``digests(v, m0, m1)`` takes the 16 starting words of
    :func:`_request_state` and the ``uint64`` columns of message words 0
    (stream index) and 1 (key), and returns the ``uint64`` column of
    64-bit digests ``h0 ^ v0 ^ v8``.  It is straight-line code:

    - the adds of the 14 zero message words are skipped;
    - a word stays a Python int until it first meets a column (three of
      round 0's column G's never do), then becomes a fresh column;
    - the last round's steps that cannot reach ``v0`` or ``v8`` are
      dropped;
    - every column step is one in-place ufunc, with one scratch column
      ``t`` for the rotations.

    Generated on first use, like :func:`repro.ballsbins.allocation._scan`,
    so importing the package compiles nothing.
    """
    steps = [s for s in _steps() if not (s[0] == "add" and s[2] >= 18)]
    live = {0, 8}
    kept = []
    for op, i, j in reversed(steps):
        if i in live:
            kept.append((op, i, j))
            if op != "rot":
                live.add(j)
    names = [f"v{i}" for i in range(16)] + ["m0", "m1"]
    columns = {16, 17}
    lines = [
        "def digests(v, m0, m1):",
        f"    {', '.join(names[:16])} = v",
        "    h0 = v0",
        "    t = empty_like(m0)",
    ]
    for op, i, j in reversed(kept):
        a = names[i]
        if op == "rot":
            if i in columns:
                lines += [
                    f"    right_shift({a}, R{j}, out=t)",
                    f"    left_shift({a}, L{j}, out={a})",
                    f"    bitwise_or({a}, t, out={a})",
                ]
            else:
                lines.append(f"    {a} = ({a} >> {j} | {a} << {64 - j}) & M")
            continue
        b = names[j]
        ufunc = "add" if op == "add" else "bitwise_xor"
        if i in columns:
            operand = b if j in columns else f"uint64({b})"
            lines.append(f"    {ufunc}({a}, {operand}, out={a})")
        elif j in columns:
            lines.append(f"    {a} = {ufunc}({b}, uint64({a}))")
            columns.add(i)
        elif op == "add":
            lines.append(f"    {a} = ({a} + {b}) & M")
        else:
            lines.append(f"    {a} ^= {b}")
    lines += [
        "    bitwise_xor(v0, v8, out=v0)",
        "    bitwise_xor(v0, uint64(h0), out=v0)",
        "    return v0",
    ]
    namespace: dict = {
        "M": _M64,
        "uint64": np.uint64,
        "empty_like": np.empty_like,
        "add": np.add,
        "bitwise_xor": np.bitwise_xor,
        "bitwise_or": np.bitwise_or,
        "right_shift": np.right_shift,
        "left_shift": np.left_shift,
    }
    for n in (32, 24, 16, 63):
        namespace[f"R{n}"] = np.uint64(n)
        namespace[f"L{n}"] = np.uint64(64 - n)
    exec(compile("\n".join(lines), "<blake2b request digests>", "exec"), namespace)
    return namespace["digests"]


class HashSampler:
    """Keyed-BLAKE2b threshold sampler over ``(seed, key, index)``.

    ``admit(key, index)`` is True when
    ``BLAKE2b(index || key, key=MAC(seed, trial)) < sample * 2^64`` —
    a pure function of the identifiers, consuming no RNG stream.  The
    admitted fraction converges to ``sample`` (hypothesis-tested) and
    the decision for a given request never depends on how many other
    requests were traced.  :meth:`admit` asks ``hashlib``;
    :meth:`mask` computes the same digests as NumPy columns.
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

    def digests(self, keys: np.ndarray, start: int = 0) -> np.ndarray:
        """The ``uint64`` digests :meth:`admit` compares, for a key stream.

        Request ``j`` hashes the block ``pack("<qq", start + j,
        keys[j])``, whose two words are the int64 index and key read as
        ``uint64``; one columnar compression (:func:`_digest_body`)
        computes every digest.
        """
        keys = np.asarray(keys, dtype=np.int64)
        index = np.arange(start, start + len(keys), dtype=np.int64)
        return _digest_body()(
            _request_state(self._key), index.view(np.uint64), keys.view(np.uint64)
        )

    def mask(self, keys: np.ndarray, start: int = 0) -> np.ndarray:
        """Vectorised admit decisions for a key stream."""
        if self._sample >= 1.0:
            return np.ones(len(keys), dtype=bool)
        if self._cut <= 0:
            return np.zeros(len(keys), dtype=bool)
        return self.digests(keys, start) < np.uint64(self._cut)


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
        Disable to record causal traces without attributing them (the
        suspects block and alerts disappear).
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
    :meth:`sample_mask`, a pure function of the config, seed, trial and
    keys, then one :meth:`observe` call per run with the run's
    :class:`~repro.obs.columns.TrialColumns` and the mask.  It returns
    the trial's suspects block and concentration alerts, which the
    engine hands to the monitor.  No per-run state outlives the call, so
    one recorder may observe many runs; campaigns build one per trial
    and merge them in trial order.
    """

    enabled = True

    def __init__(
        self, config: Optional[TraceConfig] = None, seed: Optional[int] = None
    ) -> None:
        self._config = config if config is not None else TraceConfig()
        self._seed = seed
        # Campaign-level state (fed by observe() or merge_trial()).
        self._records: Deque[dict] = deque(maxlen=self._config.capacity)
        self._appended = 0
        self._sampled = 0
        self._seen = 0
        self._summaries: List[dict] = []
        self._cum = Attribution(self._config.top_k)

    # -- introspection -----------------------------------------------------

    @property
    def config(self) -> TraceConfig:
        """The (picklable) configuration; workers rebuild from this."""
        return self._config

    @property
    def records(self) -> List[dict]:
        """Retained trace records, oldest first, as a new list."""
        return list(self._records)

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
        """``attribution-concentration`` alert records of every trial
        summary, in order."""
        return [alert for summary in self._summaries for alert in summary["alerts"]]

    @property
    def summaries(self) -> List[dict]:
        """Per-trial trace summaries, in trial order."""
        return self._summaries

    # -- engine protocol ---------------------------------------------------

    def sample_mask(self, keys: np.ndarray, trial: int) -> np.ndarray:
        """Admit decisions for one trial's key stream (consumes no RNG)."""
        return self._config.make_sampler(self._seed, trial).mask(np.asarray(keys))

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
        """Record one run's requests admitted by ``mask`` (from
        :meth:`sample_mask`), one record each, in event order, and
        return ``{trial, sampled, suspects, alerts}``.

        ``m`` sizes the prefix buckets, ``client_map`` (key -> ground
        truth client id, from the workload) tags records, and
        ``group_of`` (the partitioner's vectorized ``replica_groups``,
        called once per run with the traced keys) resolves replica
        groups.
        ``chaos=True`` adds an ``attempts`` field to every record; a
        request that failed over is recorded at its retry, with
        ``attempts = 2``.  A served dispatch carries its queue ``wait``
        (from the original arrival) and ``service`` time; an unserved
        one the status ``dropped`` (queue full) or ``lost`` (crash).

        The engine forwards ``suspects`` and ``alerts`` to the monitor
        (when one is attached) so they land in the run summary and the
        event log; either way they fold into this recorder's campaign
        aggregate.
        """
        trial = int(columns.trial)
        stream = columns.request_stream(mask)
        request, t, key, node = stream.request, stream.time, stream.key, stream.node
        # Each request's one successful dispatch, or a NaN sentinel.
        sentinel = columns.dispatch_request.size
        dispatch_of = np.full(columns.time.size, sentinel)
        dispatch_of[columns.dispatch_request] = np.arange(sentinel)
        q = dispatch_of[request]
        start = np.append(columns.dispatch_start, np.nan)[q]
        wait = start - columns.time[request]
        service = np.append(columns.dispatch_departure, np.nan)[q] - start
        status = np.append(columns.dispatch_status, -1)[q]
        hit = node == HIT
        layer = shard = np.full(request.size, -1)
        if columns.layer is not None:
            path = hit & (columns.layer[request] >= 0)
            layer = np.where(path, columns.layer[request], -1)
            shard = np.where(path, columns.shard[request], -1)
        prefix = key * self._config.prefix_buckets // m
        client = np.zeros_like(key) if client_map is None else client_map[key].astype(np.int64)
        group = repeat(None) if group_of is None else group_of(key).tolist()
        records = [
            {
                "type": "trace",
                "trial": trial,
                "i": i,
                "t": time,
                "key": k,
                "prefix": p,
                "client": c,
                "group": g,
                "hit": h,
                "node": n if n >= 0 else None,
                "layer": lay if lay >= 0 else None,
                "shard": sh if lay >= 0 else None,
                "wait": w if st == SERVED else None,
                "service": sv if st == SERVED else None,
                "status": "hit" if h else _STATUS.get(st, "unavailable"),
            }
            for i, time, k, p, c, g, h, n, lay, sh, w, sv, st in zip(
                request.tolist(), t.tolist(), key.tolist(), prefix.tolist(), client.tolist(),
                group, hit.tolist(), node.tolist(), layer.tolist(), shard.tolist(),
                wait.tolist(), service.tolist(), status.tolist(),
            )
        ]
        if chaos:
            for record, retry in zip(records, stream.retry.tolist()):
                record["attempts"] = 1 + retry
        self._records.extend(records)  # drops the oldest at capacity
        self._seen += mask.size
        self._sampled += len(records)
        self._appended += len(records)
        return self._attribute(trial, t, prefix, client, key, ~hit, columns.duration)

    def _attribute(self, trial, t, prefix, client, key, backend, duration) -> dict:
        """Attribute one trial's traced columns (:func:`~repro.obs.attribution.attribute`),
        fold them into the campaign aggregate and return the trial's
        ``{trial, sampled, suspects, alerts}``."""
        suspects, alerts = None, []
        if self._config.attribution:
            attribution, alerts = attribute(
                self._config, trial, t, prefix, client, key, backend, duration
            )
            suspects = attribution.suspects()
            self._cum.fold(attribution)
        summary = {
            "trial": trial,
            "sampled": key.size,
            "suspects": suspects,
            "alerts": alerts,
        }
        self._summaries.append(summary)
        return summary

    # -- merge -------------------------------------------------------------

    def merge_trial(self, other: "FlightRecorder") -> None:
        """Fold one trial's recorder into this recorder.

        MUST be called in trial order (the parallel executor guarantees
        it); the ring keeps the most recent ``capacity`` records across
        the merged stream, so the retained set — and the exported JSONL
        — is identical to a serial run's.
        """
        self._records.extend(other._records)
        self._appended += other._appended
        self._sampled += other._sampled
        self._seen += other._seen
        self._summaries.extend(other._summaries)
        self._cum.fold(other._cum)

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
            "alerts": len(self.alerts),
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
            for record in [head, *self._records]
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
        columns by :func:`~repro.obs.attribution.attribute`, the pure
        function :meth:`observe` calls, so the offline recorder's
        suspects, alerts and summaries match the live run's exactly when
        the ring never evicted — the ``repro forensics`` path.
        ``durations`` maps trial -> run duration
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
        recorder._records.extend(records)
        recorder._appended = len(records) + int(manifest.get("evicted", 0))
        recorder._sampled = int(manifest.get("sampled", len(records)))
        recorder._seen = int(manifest.get("seen", len(records)))
        if not config.attribution:
            return recorder
        column = {
            name: np.array([record[name] for record in records], dtype=dtype)
            for name, dtype in (("trial", np.int64), ("t", float), ("prefix", np.int64),
                                ("client", np.int64), ("key", np.int64), ("hit", bool))
        }
        order = np.argsort(column["trial"], kind="stable")
        trials, starts = np.unique(column["trial"][order], return_index=True)
        for trial, rows in zip(trials.tolist(), np.split(order, starts[1:])):
            t = column["t"][rows]
            duration = (durations or {}).get(trial, float(t[-1]))
            recorder._attribute(
                trial, t, column["prefix"][rows], column["client"][rows], column["key"][rows],
                ~column["hit"][rows], duration,
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

    def sample_mask(self, keys, trial) -> np.ndarray:
        return np.zeros(len(keys), dtype=bool)

    def observe(self, columns, mask, **run) -> None:
        return None


#: Process-wide shared no-op recorder.
NULL_RECORDER = NullRecorder()


def as_trace(trace: Optional[FlightRecorder]) -> FlightRecorder:
    """Normalise an optional ``trace=`` argument: ``None`` -> no-op."""
    return NULL_RECORDER if trace is None else trace
