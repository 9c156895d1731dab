"""Per-layer probes installed from outside the program.

A probe wraps one public callable of a repo module, patched where its
caller looks it up (``repro.sim.analytic:sample_replica_groups``, not
the defining ``repro.ballsbins.allocation``), and records a span per
call: layer, parent probe, chunk id, start and end.  A layer's *self
time* is its spans' duration minus the time covered by spans nested
inside them, so the self times of all layers plus the time outside every
probe (``unattributed``) add up to the traced wall time exactly.

Targets that no longer resolve (a later change deleted or renamed them)
are reported ``absent`` instead of failing the run.  Probes are removed
when :meth:`Probes.installed` exits, and the program's results must not
change under them: the benchmark compares traced and untraced stats.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple


def _rows(position: int):
    """Counter: length of positional argument ``position`` (keys, balls)."""
    return lambda args, result: len(args[position])


def _arg(position: int):
    """Counter: the integer value of positional argument ``position``."""
    return lambda args, result: int(args[position])


def _returned(args, result):
    return int(result)


def _one(args, result):
    return 1


def _unavailable(args, result):
    return int(result.unavailable.size)


#: (layer, target, counter name, counter).  ``target`` is
#: ``module:attribute[.attribute]``; a counter maps the call's positional
#: arguments and its result to an amount added to ``<layer>.<counter>``.
#: Bound methods count ``self`` as argument 0.
PROBE_TABLE: Tuple[Tuple[str, str, Optional[str], Optional[Callable]], ...] = (
    ("scenario", "repro.scenario:run_scenario", None, None),
    ("runner", "repro.sim.analytic:run_trials", None, None),
    ("runner", "repro.sim.batch:run_event_campaign", None, None),
    ("runner", "repro.sim.parallel:ParallelExecutor.map_trials", None, None),
    ("analytic", "repro.sim.analytic:MonteCarloSimulator.distribution_attack", None, None),
    ("analytic", "repro.sim.analytic:MonteCarloSimulator.distribution_trial", None, None),
    ("workload", "repro.workload.distributions:KeyDistribution.sample", None, None),
    ("workload", "repro.workload.distributions:KeyDistribution.top_keys", None, None),
    ("workload", "repro.workload.adversarial:AdversarialDistribution.sample", None, None),
    ("workload", "repro.workload.adversarial:AdversarialDistribution.probabilities", None, None),
    ("workload", "repro.workload.zipf:ZipfDistribution.probabilities", None, None),
    ("ballsbins", "repro.sim.analytic:sample_replica_groups", "groups", _arg(0)),
    ("ballsbins", "repro.ballsbins.allocation:sample_replica_groups", "groups", _arg(0)),
    ("selection", "repro.cluster.selection:LeastLoadedKeyPinning.node_loads", "balls", _rows(2)),
    ("failures", "repro.sim.analytic:sample_failures", None, None),
    ("failures", "repro.sim.analytic:degrade_groups", "unavailable", _unavailable),
    ("failures", "repro.cluster.failures:DegradedGroups.least_loaded_loads", "balls", _rows(1)),
    ("eventsim", "repro.sim.eventsim:EventDrivenSimulator.run", None, None),
    ("kernel", "repro.sim.kernel:run_fast", "requests", _arg(1)),
    ("engine", "repro.sim.engine:EventScheduler.run", "events", _returned),
    ("cache", "repro.cache.base:Cache.access", "accesses", _one),
    ("queueing", "repro.sim.queueing:NodeServer.arrive", "arrivals", _one),
    ("queueing", "repro.sim.queueing:NodeServer.crash", None, None),
    ("queueing", "repro.sim.queueing:NodeServer.recover", None, None),
    ("queueing", "repro.sim.queueing:NodeServer.set_rate_factor", None, None),
    ("partitioner", "repro.cluster.cluster:Cluster.replica_group", "lookups", _one),
    ("partitioner", "repro.cluster.partitioner:RandomTablePartitioner.replica_groups",
     "lookups", _rows(1)),
    ("chaos", "repro.chaos.config:ChaosConfig.schedule_for", None, None),
    ("chaos", "repro.chaos.schedule:NodeStateTracker.apply", None, None),
    ("chaos", "repro.chaos.schedule:NodeStateTracker.is_up", None, None),
    ("chaos", "repro.chaos.retry:RetryPolicy.delay", None, None),
    ("trace", "repro.obs.trace:FlightRecorder.begin_run", None, None),
    ("trace", "repro.obs.trace:FlightRecorder.sample_mask", None, None),
    ("trace", "repro.obs.trace:FlightRecorder.record_hit", None, None),
    ("trace", "repro.obs.trace:FlightRecorder.record_backend", None, None),
    ("trace", "repro.obs.trace:FlightRecorder.record_unavailable", None, None),
    ("trace", "repro.obs.trace:FlightRecorder.finalize", None, None),
    ("trace", "repro.obs.trace:FlightRecorder.snapshot", None, None),
    ("trace", "repro.obs.trace:FlightRecorder.merge_trial", None, None),
)

#: Raw spans kept for the trace file; aggregates cover every span.
SPAN_CAP = 20_000


def resolve(target: str):
    """``(owner, attribute name, current value)``, or None when absent.

    Only attributes defined on the owner itself resolve, so restoring is
    always a plain ``setattr`` of the original.
    """
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        value = owner.__dict__.get(name)
    else:
        value = getattr(owner, name, None)
    if not callable(value):
        return None
    return owner, name, value


class Probes:
    """Span recorder plus the patching of the probe table.

    ``clock`` is injectable so tests can check the accounting exactly.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 span_cap: int = SPAN_CAP) -> None:
        self.clock = clock
        self.span_cap = span_cap
        self.chunk = 0
        #: Open probe frames: [span id, layer, start, time of nested spans].
        self._stack: List[list] = []
        self._next_id = 0
        #: (layer, parent layer) -> [calls, total seconds, self seconds].
        self.aggregates: Dict[Tuple[str, str], List[float]] = {}
        self.counters: Dict[str, float] = {}
        self.spans: List[tuple] = []
        self.spans_dropped = 0
        #: Summed duration of root spans (those with no enclosing probe).
        self.root_seconds = 0.0
        #: target -> "installed" | "absent", and target -> layer.
        self.status: Dict[str, str] = {}
        self._layer_of: Dict[str, str] = {}

    def wrap(self, layer: str, fn: Callable, counter: Optional[str] = None,
             count: Optional[Callable] = None) -> Callable:
        """``fn`` recording one span per call under ``layer``."""
        stack = self._stack
        key = f"{layer}.{counter}" if counter else None

        def probe(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, layer, self.clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.clock()
                stack.pop()
                self._close(frame, end)
            if key is not None:
                self.counters[key] = self.counters.get(key, 0) + count(args, result)
            return result

        probe.__wrapped__ = fn
        return probe

    def _close(self, frame: list, end: float) -> None:
        span_id, layer, start, nested = frame
        duration = end - start
        if self._stack:
            parent = self._stack[-1]
            parent[3] += duration
            parent_layer, parent_id = parent[1], parent[0]
        else:
            self.root_seconds += duration
            parent_layer, parent_id = "", None
        agg = self.aggregates.get((layer, parent_layer))
        if agg is None:
            agg = self.aggregates[(layer, parent_layer)] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - nested
        if len(self.spans) < self.span_cap:
            self.spans.append((span_id, parent_id, layer, self.chunk, start, end))
        else:
            self.spans_dropped += 1

    @contextmanager
    def installed(self, table=PROBE_TABLE):
        """Patch every resolvable target of ``table``; restore on exit."""
        patched = []
        try:
            for layer, target, counter, count in table:
                self._layer_of[target] = layer
                found = resolve(target)
                if found is None:
                    self.status[target] = "absent"
                    continue
                owner, name, original = found
                setattr(owner, name, self.wrap(layer, original, counter, count))
                patched.append((owner, name, original))
                self.status[target] = "installed"
            yield self
        finally:
            for owner, name, original in reversed(patched):
                setattr(owner, name, original)

    def layers_present(self) -> Dict[str, bool]:
        """Per installed layer: whether at least one of its targets resolved."""
        present: Dict[str, bool] = {}
        for target, layer in self._layer_of.items():
            ok = self.status[target] == "installed"
            present[layer] = present.get(layer, False) or ok
        return present

    def calls(self, layer: str) -> int:
        """Probe calls recorded under ``layer``."""
        return sum(
            int(agg[0]) for (name, _), agg in self.aggregates.items() if name == layer
        )

    def self_seconds(self) -> Dict[str, float]:
        """Self time per layer, summed over parents."""
        out: Dict[str, float] = {}
        for (layer, _), (_, _, own) in self.aggregates.items():
            out[layer] = out.get(layer, 0.0) + own
        return out

    def unattributed(self, wall: float) -> float:
        """Traced wall time spent outside every probe."""
        return wall - self.root_seconds

    def dump(self) -> dict:
        """Aggregates, counters and the capped raw span list, as plain data."""
        return {
            "targets": dict(self.status),
            "aggregates": [
                {"layer": layer, "parent": parent, "calls": int(calls),
                 "total_s": total, "self_s": own}
                for (layer, parent), (calls, total, own) in sorted(self.aggregates.items())
            ],
            "counters": dict(self.counters),
            "span_fields": ["id", "parent", "layer", "chunk", "start", "end"],
            "spans": self.spans,
            "spans_dropped": self.spans_dropped,
        }
