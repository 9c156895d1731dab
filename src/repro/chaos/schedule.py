"""Deterministic fault-injection schedules on the simulated clock.

The paper motivates replication with fault tolerance before using it for
DDoS prevention; this module supplies the *online* failure model the
static analysis in :mod:`repro.cluster.failures` lacks.  A
:class:`FailureSchedule` is a time-ordered list of
:class:`FailureEvent`\\ s — crash / recover / slow / restore, each
pinned to a node and a simulated timestamp — that the event-driven
engine replays alongside the request stream.  Schedules come from two
sources, both reproducible:

- :meth:`FailureSchedule.generate` draws per-node crash/repair (and
  optionally slowdown) processes from a seeded generator: crashes are
  Poisson with rate ``failure_rate`` per node, repairs exponential with
  mean ``mttr`` — the classic alternating-renewal availability model
  whose steady-state down fraction is
  ``failure_rate * mttr / (1 + failure_rate * mttr)``;
- :meth:`FailureSchedule.from_json` loads a hand-written (or captured)
  schedule, so specific incident shapes can be replayed exactly.

Schedules are frozen plain data (picklable), so they cross process
boundaries unchanged — a requirement for worker-count-invariant chaos
campaigns (see :mod:`repro.sim.parallel`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, Iterator, Tuple, Union

import numpy as np

from ..exceptions import ConfigurationError
from ..rng import as_generator

__all__ = ["EVENT_KINDS", "FailureEvent", "FailureSchedule", "NodeStateTracker"]

RngLike = Union[None, int, np.random.Generator]

#: The event vocabulary: hard crashes lose the node's queue, slowdowns
#: stretch its service times by ``factor`` until restored.
EVENT_KINDS = ("crash", "recover", "slow", "restore")


@dataclass(frozen=True, order=True)
class FailureEvent:
    """One node-state transition at a simulated time.

    Ordering is ``(time, node, kind)`` so sorted schedules replay
    deterministically even when several events share a timestamp.
    """

    time: float
    node: int
    kind: str
    #: Service-rate multiplier for ``slow`` events (ignored otherwise).
    factor: float = 1.0

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ConfigurationError(f"event time must be >= 0, got {self.time}")
        if self.node < 0:
            raise ConfigurationError(f"node must be >= 0, got {self.node}")
        if self.kind not in EVENT_KINDS:
            raise ConfigurationError(
                f"unknown event kind {self.kind!r}; expected one of {EVENT_KINDS}"
            )
        if self.kind == "slow" and not 0.0 < self.factor <= 1.0:
            raise ConfigurationError(
                f"slow factor must be in (0, 1], got {self.factor}"
            )

    def to_dict(self) -> dict:
        """JSON-able form (stable key order handled by the writer)."""
        record = {"time": self.time, "node": self.node, "kind": self.kind}
        if self.kind == "slow":
            record["factor"] = self.factor
        return record

    @classmethod
    def from_dict(cls, record: dict) -> "FailureEvent":
        """Inverse of :meth:`to_dict`."""
        return cls(
            time=float(record["time"]),
            node=int(record["node"]),
            kind=str(record["kind"]),
            factor=float(record.get("factor", 1.0)),
        )


@dataclass(frozen=True)
class FailureSchedule:
    """An immutable, time-sorted sequence of failure events.

    Build with :meth:`generate` (seeded synthesis) or :meth:`from_json`
    (replay); the constructor accepts any iterable of events and sorts
    it, so hand-assembled schedules need not be pre-ordered.
    """

    events: Tuple[FailureEvent, ...] = ()

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.events))
        object.__setattr__(self, "events", ordered)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[FailureEvent]:
        return iter(self.events)

    @property
    def crash_count(self) -> int:
        """Number of hard-crash events in the schedule."""
        return sum(1 for e in self.events if e.kind == "crash")

    @property
    def max_time(self) -> float:
        """Timestamp of the last event (0.0 for an empty schedule)."""
        return self.events[-1].time if self.events else 0.0

    def nodes_touched(self) -> FrozenSet[int]:
        """Every node id referenced by any event."""
        return frozenset(e.node for e in self.events)

    def state_at(self, t: float) -> Tuple[FrozenSet[int], Dict[int, float]]:
        """(down node ids, slow-node -> factor) after all events <= ``t``."""
        down = set()
        slow: Dict[int, float] = {}
        for event in self.events:
            if event.time > t:
                break
            if event.kind == "crash":
                down.add(event.node)
            elif event.kind == "recover":
                down.discard(event.node)
            elif event.kind == "slow":
                slow[event.node] = event.factor
            else:
                slow.pop(event.node, None)
        return frozenset(down), slow

    @classmethod
    def generate(
        cls,
        n: int,
        duration: float,
        failure_rate: float,
        mttr: float,
        rng: RngLike = None,
        slow_rate: float = 0.0,
        slow_factor: float = 0.25,
    ) -> "FailureSchedule":
        """Draw a crash/repair (and optional slowdown) process per node.

        Parameters
        ----------
        n, duration:
            Node count and the simulated horizon to cover; crashes
            beyond ``duration`` are not generated (their repairs may
            land past it, which is harmless).
        failure_rate:
            Per-node crash intensity (crashes / simulated second while
            up).  ``0`` disables crashes.
        mttr:
            Mean time to repair (seconds); each down period is an
            independent exponential draw.
        rng:
            Seed or generator; the same value reproduces the schedule
            bit-for-bit.
        slow_rate, slow_factor:
            Optional brown-out process: each node independently enters
            a slow state (service rate multiplied by ``slow_factor``)
            at intensity ``slow_rate``, restoring after an
            ``Exp(mttr)`` period.  Default off.
        """
        if n < 1:
            raise ConfigurationError(f"n must be positive, got {n}")
        if duration <= 0:
            raise ConfigurationError(f"duration must be positive, got {duration}")
        if failure_rate < 0 or slow_rate < 0:
            raise ConfigurationError("failure_rate and slow_rate must be >= 0")
        if mttr <= 0:
            raise ConfigurationError(f"mttr must be positive, got {mttr}")
        gen = as_generator(rng, "chaos-schedule")
        events = []
        for node in range(n):
            for kind, end_kind, rate in (
                ("crash", "recover", failure_rate),
                ("slow", "restore", slow_rate),
            ):
                if rate <= 0:
                    continue
                t = 0.0
                while True:
                    t += float(gen.exponential(1.0 / rate))
                    if t >= duration:
                        break
                    repair = float(gen.exponential(mttr))
                    events.append(
                        FailureEvent(
                            time=t, node=node, kind=kind,
                            factor=slow_factor if kind == "slow" else 1.0,
                        )
                    )
                    events.append(FailureEvent(time=t + repair, node=node, kind=end_kind))
                    t += repair
        return cls(tuple(events))

    # -- (de)serialisation -------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-able form: a schema tag plus the event list."""
        return {"schema": 1, "events": [e.to_dict() for e in self.events]}

    @classmethod
    def from_dict(cls, payload: dict) -> "FailureSchedule":
        """Inverse of :meth:`to_dict`."""
        events = payload.get("events")
        if not isinstance(events, list):
            raise ConfigurationError("schedule payload needs an 'events' list")
        return cls(tuple(FailureEvent.from_dict(e) for e in events))

    def to_json(self, path: Union[str, Path]) -> Path:
        """Write the schedule as a JSON document."""
        path = Path(path)
        path.write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return path

    @classmethod
    def from_json(cls, path: Union[str, Path]) -> "FailureSchedule":
        """Load a schedule written by :meth:`to_json` (or by hand)."""
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


class NodeStateTracker:
    """Live node up/down + slowdown state as a schedule replays.

    The event engine owns one per run; it applies each
    :class:`FailureEvent` as the simulated clock reaches it and answers
    the routing layer's "is this replica up?" queries in O(1).
    """

    __slots__ = ("n", "_up", "_factor", "_down_count")

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ConfigurationError(f"n must be positive, got {n}")
        self.n = n
        self._up = np.ones(n, dtype=bool)
        self._factor = np.ones(n, dtype=float)
        self._down_count = 0

    def is_up(self, node: int) -> bool:
        """Whether ``node`` is currently serving."""
        return bool(self._up[node])

    def rate_factor(self, node: int) -> float:
        """Current service-rate multiplier for ``node`` (1.0 = healthy)."""
        return float(self._factor[node])

    @property
    def down_count(self) -> int:
        """Nodes currently down."""
        return self._down_count

    @property
    def down_fraction(self) -> float:
        """Fraction of the cluster currently down."""
        return self._down_count / self.n

    def down_nodes(self) -> Tuple[int, ...]:
        """Sorted ids of the nodes currently down."""
        return tuple(int(i) for i in np.nonzero(~self._up)[0])

    def apply(self, event: FailureEvent) -> bool:
        """Apply one event; returns True when the state actually changed
        (a second crash of an already-down node is a no-op)."""
        node = event.node
        if not 0 <= node < self.n:
            raise ConfigurationError(
                f"event for node {node} outside cluster of {self.n}"
            )
        if event.kind == "crash":
            if not self._up[node]:
                return False
            self._up[node] = False
            self._down_count += 1
            return True
        if event.kind == "recover":
            if self._up[node]:
                return False
            self._up[node] = True
            self._down_count -= 1
            return True
        if event.kind == "slow":
            changed = self._factor[node] != event.factor
            self._factor[node] = event.factor
            return bool(changed)
        changed = self._factor[node] != 1.0
        self._factor[node] = 1.0
        return bool(changed)

    def surviving(self, group: Iterable[int]) -> Tuple[int, ...]:
        """The subset of a replica group that is currently up."""
        return tuple(int(g) for g in group if self._up[int(g)])
