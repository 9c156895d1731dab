"""The benchmark's four workloads and its correctness gate.

Every workload runs the paper's system (``n=1000, m=100000, d=3,
R=1e5``) through the public scenario front door.  A timed pass is
``CHUNKS`` chunks run back to back; chunk ``k`` of seed ``S`` runs every
scenario of the workload with seed ``S + k``.  The chunk sizes below were
sized so a chunk takes 0.3-0.5 s on a quiet 2-core x86 host: a run repeats
passes until its budget is spent, so each chunk is timed many times.

Why these four (one workload exercises each mechanism, another bypasses
it):

- ``mc-fig3a`` is the paper's headline figure (Fig. 3a, c = 200).  Most
  of its time is the pure-Python greedy d-choice in
  ``cluster.selection`` and replica-group sampling in ``ballsbins``.
- ``mc-fig3b-chaos`` is the large-cache panel (c = 2000) with 4.8% of
  nodes failed.  It reaches placement through ``cluster.failures``
  instead of ``cluster.selection``.
- ``event-flood`` is the batched ``sim.kernel`` path end to end, with a
  static cache and no chaos or tracing: the bypass workload for engine,
  cache and instrumentation changes.
- ``event-lru-chaos`` is benign Zipf traffic through an LRU cache with
  chaos and request tracing on, which today forces the per-event
  scheduler (``sim.engine``, ``sim.queueing``, ``cache``, ``obs.trace``).

Nothing here imports ``repro``: the parent process reads this module to
name workloads and count runs, and only the child processes build the
specs.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: Timed chunks per pass; chunk ``k`` uses seed ``S + k``.
CHUNKS = 5

#: The seed used when ``--seed`` is not given, and one held-out seed.
#: ``reference.json`` pins the digests of both, at full and smoke size.
DEFAULT_SEED = 0
HELD_OUT_SEED = 2013

SYSTEM = {"n": 1000, "m": 100_000, "d": 3, "rate": 1e5}

#: ``default_x_grid(c, m)`` of ``repro.experiments.fig3`` at c = 200 and
#: c = 2000, written out so the benchmark's inputs cannot drift with it.
FIG3A_X = (
    201, 290, 417, 601, 866, 1248, 1799, 2592, 3735, 5382, 7754, 11173,
    16100, 23198, 33427, 48165, 69401, 100000,
)
FIG3B_X = (
    2001, 2519, 3170, 3990, 5023, 6322, 7958, 10017, 12608, 15870, 19976,
    25144, 31649, 39838, 50144, 63117, 79446, 100000,
)

#: Smoke sizes keep the grids' first points and one trial per scenario.
SMOKE_POINTS = 6
SMOKE_TRIALS = 1


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: how to build a chunk of scenario specs."""

    name: str
    engine: str  # "monte-carlo" or "event-driven"
    c: int
    trials: int
    x_grid: Tuple[int, ...] = ()
    queries: int = 0
    smoke_queries: int = 0
    extra: Optional[dict] = None

    @property
    def item(self) -> str:
        """What the throughput counts: placed balls or simulated requests."""
        return "balls" if self.engine == "monte-carlo" else "requests"

    def chunk_specs(self, seed: int, smoke: bool) -> List[dict]:
        """The scenario specs (plain data) of one chunk run at ``seed``."""
        trials = SMOKE_TRIALS if smoke else self.trials
        base = {
            "scenario": 1,
            "system": dict(SYSTEM, c=self.c),
            "trials": trials,
            "seed": seed,
            "workers": 1,
            **(self.extra or {}),
        }
        if self.engine == "monte-carlo":
            grid = self.x_grid[:SMOKE_POINTS] if smoke else self.x_grid
            return [
                dict(
                    base,
                    name=f"{self.name}/x={x}",
                    adversary={"kind": "subset-flood", "x": x},
                )
                for x in grid
            ]
        queries = self.smoke_queries if smoke else self.queries
        return [dict(base, name=self.name, queries=queries)]

    def items(self, spec: dict) -> int:
        """Balls placed (trials x uncached keys) or requests simulated."""
        if self.engine == "monte-carlo":
            return spec["trials"] * (spec["adversary"]["x"] - self.c)
        return spec["trials"] * spec["queries"]

    def runs_per_pass(self, smoke: bool) -> int:
        """Scenario runs in one timed pass."""
        return CHUNKS * len(self.chunk_specs(DEFAULT_SEED, smoke))


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="mc-fig3a",
            engine="monte-carlo",
            c=200,
            trials=1,
            x_grid=FIG3A_X,
        ),
        Workload(
            name="mc-fig3b-chaos",
            engine="monte-carlo",
            c=2000,
            trials=1,
            x_grid=FIG3B_X,
            extra={"chaos": {"kind": "renewal", "failure_rate": 0.05, "mttr": 1.0}},
        ),
        Workload(
            name="event-flood",
            engine="event-driven",
            c=200,
            trials=1,
            queries=400_000,
            smoke_queries=20_000,
            extra={
                "adversary": {"kind": "subset-flood", "x": 20_000},
                "engine": {"kind": "event-driven", "service": "exponential"},
            },
        ),
        Workload(
            name="event-lru-chaos",
            engine="event-driven",
            c=200,
            trials=1,
            queries=30_000,
            smoke_queries=5_000,
            extra={
                "workload": {"kind": "zipf", "s": 1.01},
                "cache": "lru",
                "chaos": {"kind": "renewal", "failure_rate": 0.1, "mttr": 1.0},
                "trace": {"kind": "hash", "sample": 0.01},
                "engine": {"kind": "event-driven"},
            },
        ),
    )
}


def digest(stats: dict) -> str:
    """SHA-256 of a scenario's ``outcome.stats`` in canonical JSON."""
    text = json.dumps(stats, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def invariant_error(workload: Workload, spec: dict, outcome) -> Optional[str]:
    """Seed-independent checks on one scenario outcome; None when they hold.

    Monte-Carlo: every trial's normalized max is finite and >= 0, and a
    healthy run's is at least the back-end share ``(x - c) / x`` (the
    most loaded node carries at least the average).  Event-driven: per
    trial, every request is a hit or a back-end query, and every back-end
    query is served, dropped or unavailable.
    """
    result = outcome.result
    if workload.engine == "monte-carlo":
        x = spec["adversary"]["x"]
        floor = (x - workload.c) / x if "chaos" not in spec else 0.0
        for t, value in enumerate(result.normalized_max_per_trial.tolist()):
            if not math.isfinite(value) or value < 0:
                return f"trial {t}: normalized max {value!r} is not finite and >= 0"
            if value < floor:
                return f"trial {t}: normalized max {value!r} < (x - c) / x = {floor!r}"
        return None
    for t, res in enumerate(result.results):
        if res.frontend_hits + res.backend_queries != spec["queries"]:
            return (
                f"trial {t}: hits {res.frontend_hits} + backend {res.backend_queries} "
                f"!= queries {spec['queries']}"
            )
        ends = int(res.served.sum()) + int(res.dropped.sum()) + res.unavailable
        if ends != res.backend_queries:
            return (
                f"trial {t}: served + dropped + unavailable = {ends} "
                f"!= backend {res.backend_queries}"
            )
    return None
