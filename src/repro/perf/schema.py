"""Schema-versioned run manifests for the unified bench harness.

Every benchmark execution produces one :class:`RunManifest`: what ran
(bench name, config, seed, workers, git SHA), how long the *engine*
phase took (JSON serialization and table rendering are timed separately
— see ``docs/PERFORMANCE.md``), what it processed (events and balls, so
throughput is events/sec and balls/sec over engine time only), the
profiler's deterministic op-counters and wall-clock span aggregates,
and peak memory (the process RSS high-water mark; the
``tracemalloc_peak_bytes`` field is ``null`` in new manifests — timings
are never taken under memory tracing — and is still read from old rows).

Manifests append to ``benchmarks/results/history.jsonl`` (one JSON
object per line) and roll up into the top-level ``BENCH_<name>.json``
trajectory artifacts.  The schema is versioned so the comparator can
hard-fail on records it does not understand instead of silently
producing nonsense verdicts.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional

from ..exceptions import ReproError

__all__ = [
    "SCHEMA_VERSION",
    "PerfSchemaError",
    "RunManifest",
    "validate_manifest",
    "git_sha",
    "host_info",
    "peak_rss_bytes",
]

#: Manifest format version.  Bump on any incompatible field change and
#: teach :func:`validate_manifest` about the migration.
SCHEMA_VERSION = 1


class PerfSchemaError(ReproError):
    """A perf manifest (or history line) violates the declared schema."""


def git_sha(cwd: Optional[Path] = None) -> Optional[str]:
    """Current commit SHA, or ``None`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(cwd) if cwd else None,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and len(sha) == 40 else None


def host_info() -> Dict[str, object]:
    """Machine provenance recorded with every manifest."""
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": sys.platform,
    }


def peak_rss_bytes() -> Optional[int]:
    """Process RSS high-water mark in bytes (``None`` where unsupported).

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; normalise to
    bytes so manifests compare across hosts.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if peak <= 0:
        return None
    return int(peak) if sys.platform == "darwin" else int(peak) * 1024


#: Required top-level fields and the types the validator enforces.
_REQUIRED: Dict[str, tuple] = {
    "schema": (int,),
    "bench": (str,),
    "smoke": (bool,),
    "ok": (bool,),
    "timestamp": (int, float),
    "config": (dict,),
    "timings": (dict,),
    "throughput": (dict,),
    "ops": (dict,),
    "spans": (dict,),
    "memory": (dict,),
    "host": (dict,),
}

_REQUIRED_TIMINGS = ("engine_seconds", "export_seconds", "wall_seconds")


@dataclass
class RunManifest:
    """One benchmark execution, ready for the history store.

    ``engine_seconds`` covers only the simulation/kernel work;
    ``export_seconds`` covers rendering and JSON serialization.
    Throughput fields divide workload units by *engine* time, never by
    wall time — the fix ISSUE 5 demands.
    """

    bench: str
    smoke: bool
    ok: bool
    engine_seconds: float
    export_seconds: float
    wall_seconds: float
    config: Dict[str, object] = field(default_factory=dict)
    seed: Optional[int] = None
    workers: Optional[int] = None
    git_sha: Optional[str] = None
    timestamp: float = field(default_factory=time.time)
    events: Optional[int] = None
    balls: Optional[int] = None
    #: Optional per-engine breakdown for benches that run the same
    #: workload under several engines (``{"legacy": {...}, "fast":
    #: {...}}`` with seconds / events / events_per_second per engine).
    engines: Optional[Dict[str, dict]] = None
    ops: Dict[str, float] = field(default_factory=dict)
    spans: Dict[str, dict] = field(default_factory=dict)
    tracemalloc_peak_bytes: Optional[int] = None
    rss_peak_bytes: Optional[int] = None
    host: Dict[str, object] = field(default_factory=host_info)
    error: Optional[str] = None
    schema: int = SCHEMA_VERSION

    @property
    def events_per_second(self) -> Optional[float]:
        """Events over *engine* seconds (``None`` without a workload)."""
        if self.events is None or self.engine_seconds <= 0:
            return None
        return self.events / self.engine_seconds

    @property
    def balls_per_second(self) -> Optional[float]:
        """Balls over *engine* seconds (``None`` without a workload)."""
        if self.balls is None or self.engine_seconds <= 0:
            return None
        return self.balls / self.engine_seconds

    def to_dict(self) -> dict:
        """Plain-data (JSON-ready) manifest; passes the validator."""
        return {
            "schema": self.schema,
            "bench": self.bench,
            "smoke": self.smoke,
            "ok": self.ok,
            "timestamp": self.timestamp,
            "git_sha": self.git_sha,
            "seed": self.seed,
            "workers": self.workers,
            "config": dict(self.config),
            "timings": {
                "engine_seconds": self.engine_seconds,
                "export_seconds": self.export_seconds,
                "wall_seconds": self.wall_seconds,
            },
            "throughput": {
                "events": self.events,
                "balls": self.balls,
                "events_per_second": self.events_per_second,
                "balls_per_second": self.balls_per_second,
            },
            "engines": self.engines,
            "ops": dict(self.ops),
            "spans": {path: dict(stats) for path, stats in self.spans.items()},
            "memory": {
                "tracemalloc_peak_bytes": self.tracemalloc_peak_bytes,
                "rss_peak_bytes": self.rss_peak_bytes,
            },
            "host": dict(self.host),
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, record: dict) -> "RunManifest":
        """Rebuild a manifest from its dict form (validated first)."""
        validate_manifest(record)
        timings = record["timings"]
        throughput = record["throughput"]
        memory = record["memory"]
        return cls(
            bench=record["bench"],
            smoke=record["smoke"],
            ok=record["ok"],
            engine_seconds=float(timings["engine_seconds"]),
            export_seconds=float(timings["export_seconds"]),
            wall_seconds=float(timings["wall_seconds"]),
            config=dict(record["config"]),
            seed=record.get("seed"),
            workers=record.get("workers"),
            git_sha=record.get("git_sha"),
            timestamp=float(record["timestamp"]),
            events=throughput.get("events"),
            balls=throughput.get("balls"),
            engines=record.get("engines"),
            ops=dict(record["ops"]),
            spans={p: dict(s) for p, s in record["spans"].items()},
            tracemalloc_peak_bytes=memory.get("tracemalloc_peak_bytes"),
            rss_peak_bytes=memory.get("rss_peak_bytes"),
            host=dict(record["host"]),
            error=record.get("error"),
            schema=record["schema"],
        )

    def to_json_line(self) -> str:
        """One ``history.jsonl`` line (sorted keys, no trailing spaces)."""
        return json.dumps(self.to_dict(), sort_keys=True, allow_nan=False)


def validate_manifest(record: object) -> dict:
    """Check one manifest dict against the schema; returns it on success.

    Raises :class:`PerfSchemaError` on any violation — unknown schema
    version, missing field, wrong type, negative timing.  The comparator
    and history loader both route through here, which is what makes
    "hard-fail on schema errors" enforceable in CI.
    """
    if not isinstance(record, dict):
        raise PerfSchemaError(f"manifest must be a dict, got {type(record).__name__}")
    version = record.get("schema")
    if version != SCHEMA_VERSION:
        raise PerfSchemaError(
            f"unsupported manifest schema {version!r} (this build reads "
            f"schema {SCHEMA_VERSION})"
        )
    for name, types in _REQUIRED.items():
        if name not in record:
            raise PerfSchemaError(f"manifest is missing required field {name!r}")
        value = record[name]
        # bool subclasses int, so reject bools wherever a number is
        # expected (and non-bools where a flag is expected).
        type_ok = (
            isinstance(value, bool)
            if types == (bool,)
            else not isinstance(value, bool) and isinstance(value, types)
        )
        if not type_ok:
            raise PerfSchemaError(
                f"manifest field {name!r} must be "
                f"{' or '.join(t.__name__ for t in types)}, "
                f"got {type(value).__name__}"
            )
    if not record["bench"]:
        raise PerfSchemaError("manifest field 'bench' must be non-empty")
    timings = record["timings"]
    for key in _REQUIRED_TIMINGS:
        value = timings.get(key)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise PerfSchemaError(f"timings[{key!r}] must be a number, got {value!r}")
        if value < 0:
            raise PerfSchemaError(f"timings[{key!r}] must be >= 0, got {value!r}")
    return record
