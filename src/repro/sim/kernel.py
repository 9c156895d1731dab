"""Batched struct-of-arrays event kernel: the event engine.

A per-event scheduler pays interpreter overhead per event: one closure
and one heap operation per arrival, completion, retry and failure.  This
kernel instead resolves each decision layer for the whole run in bulk,
and replays every configuration — any cache policy, cache trees, pin or
random routing, chaos schedules with retries, monitor, metrics and
trace — **bit-identically** to that scheduler, which survives as the
test oracle ``tests/event_oracle.py``.  Identity holds for results,
metrics exports, monitor telemetry, trace records and RNG stream
consumption.  The replay rules that make it exact:

- **Cache.**  The front end is accessed synchronously at arrival and
  nothing else touches it, so the hit mask of a flat cache is one
  ``cache.access_many`` call over the key stream in arrival order; it
  equals one ``cache.access`` per key, and policies batch it (LRU in one
  loop, the perfect cache as one vectorized membership test).
  Non-degenerate cache trees keep one ``access`` per request, because
  they also record ``cache.last_hit`` (layer, shard) per hit for the
  monitor and the trace.
- **Node state.**  The chaos schedule is replayed once through
  :class:`~repro.chaos.schedule.NodeStateTracker` to get per-node change
  times.  ``is_up(node, t)`` is the state after every event with
  ``time <= t``: failure events are enqueued first, so they precede
  same-time arrivals, retries and completions.  ``failure_events``
  counts the events that changed state.
- **Dispatch.**  Attempt 1 is :func:`_route_batch`: pins and random
  draws happen in miss arrival order, even when the chosen node is
  down.  A request whose node is down fails over at
  ``t + retry.delay(1)`` to the first member of its replica group, in
  group order, that was not tried and is up then; if there is none it
  is unavailable with ``attempts=2``.  With ``max_attempts == 1`` or
  ``d == 1`` it is unavailable at ``t``.  A retry always lands on an up
  node, so a request retries at most once.  Replica groups are resolved
  once per unique key, found without sorting from a presence bitmap
  over the ``m`` keys (:func:`_dense_ids`).  Pin state is a dense
  length-``m`` table of node ids, ``-1`` while a key is unpinned: one
  gather finds the unseen keys, only their groups are looked up, one
  scatter stores their picks, and attempt 1 is one gather from the
  table.  Successful dispatches are grouped per node in ``(node, time,
  index)`` order by a stable sort by node id cast to the narrowest
  unsigned type, which NumPy radix sorts.  Attempt-1 dispatches are
  already in time order, so only appended failovers add a stable time
  sort before it; when every attempt 1 succeeded, the miss arrays are
  grouped in place of masked copies.
- **Queues.**  Each node is a single-server FIFO: ``start =
  max(t, dep_prev)``, ``dep = start + s``, with drop-on-full admission.
  :func:`_busy_period_pass` settles every node at once, in
  ``(node, time)`` order.  The Lindley closed form (node-local prefix
  sums of ``s`` and a segmented ``maximum.accumulate``) only *guesses*
  where each busy period starts; it is algebraically equal to the
  recurrence but not IEEE-754 identical.  The departures are then
  computed by stepping over position within the busy periods,
  ``dep[i] = (t[i] if i starts a period else dep[i-1]) + s[i]`` — the
  scalar recurrence's own adds, in its order — and every guessed start
  is checked exactly against them (``t[i] > dep[i-1]``).  When every
  check holds, the guess was the true partition, so the departures are
  bit-identical to the scalar ones.  A period of at most
  ``queue_limit + 1`` requests cannot fill the queue, so no drop is
  possible.  A node goes to the scalar :func:`_fifo_drain` instead if it
  has crashes or slow periods, fails a check, or has a busy period
  longer than ``queue_limit + 1``.  There, at a crash at ``tc`` every
  admitted request with ``dep >= tc`` is lost; the lost ones with
  ``start >= tc`` never started and consume no service draw (each node
  has its own per-run stream, so over-drawing is harmless), and the slow
  factor is the one in force at service start.  The per-node service
  streams are drawn into one array up front, so each is consumed
  exactly as a per-node drain consumes it.  No per-node generator is
  built: :meth:`~repro.rng.RngFactory.pcg64_states` derives every busy
  node's ``(seed, "eventsim-service", trial * n + node)`` PCG64 state in
  one bulk pass, and one reused generator draws each stream after its
  state is assigned.  Latency is ``dep - t0`` and trace
  ``wait`` is ``start - t0``, where ``t0`` is the original arrival
  time.
- **Event order.**  Monitor, trace and stale-hit decisions follow
  ``(time, class, index)``: class 0 is node events, class 1 events at
  arrival time, class 2 retry outcomes.  ``serve_stale`` counts a stale
  hit iff a successful dispatch of the same key precedes the
  unavailable event in this order.  ``events_fired_total`` is the
  arrivals plus services started plus schedule events plus retries.
- **Ties.**  An arrival at exactly a departure time still finds the
  departing request in the system (arrivals precede completions).  A
  retry at exactly a departure time on its node would be ordered by
  heap insertion; the kernel detects that tie on either queue path and
  raises :class:`~repro.exceptions.SimulationError` instead of guessing.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import chain
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..chaos.schedule import NodeStateTracker
from ..exceptions import SimulationError
from ..types import LoadVector

__all__ = ["DEFAULT_LATENCY_SAMPLE_LIMIT", "run_fast"]

#: Cap on retained latency samples per node (uniform head sample), so
#: long runs stay memory-bounded.
DEFAULT_LATENCY_SAMPLE_LIMIT = 100_000

#: Class-1 outcomes of an arrival besides a node id: retried after its
#: node was found down, unavailable, or a front-end hit.
_RETRIED = -1
_UNAVAILABLE = -2
_HIT = -3

#: Dispatches per node-aligned block of :func:`_busy_period_pass`; it
#: bounds the pass's temporaries and the magnitude of its segment offsets.
_DRAIN_BLOCK = 1 << 15


class _Retry(NamedTuple):
    """A retry outcome: a failover dispatch, or ``node == -1`` when no
    replica was up.  Sorts in event order, ``(time, class, index)``."""

    time: float
    cls: int  # always 2
    index: int
    node: int
    origin: float  # the original arrival time
    key: int


def _cache_pass(cache, keys: np.ndarray, layered: bool):
    """``(hit_mask, paths)``: front-end outcome per arrival, in order.

    ``paths[i]`` is the (layer, shard) that served hit ``i`` of a
    non-degenerate tree (``None`` on a miss); ``paths`` is ``None`` for
    flat caches.
    """
    if not layered:
        return cache.access_many(keys), None
    access = cache.access
    paths: List[Optional[Tuple[int, int]]] = []
    hits = []
    for key in keys.tolist():
        hits.append(access(key))
        paths.append(cache.last_hit)
    return np.array(hits, dtype=bool), paths


def _dense_ids(keys: np.ndarray, size: int):
    """NumPy's ``unique(keys, return_index=True, return_inverse=True)``
    for keys from ``[0, size)``, without sorting.

    A presence bitmap over the key space gives the sorted unique keys,
    its running count the inverse, and a scatter-minimum of positions
    the first appearances — O(len(keys) + size).  The running count is
    kept in the narrowest unsigned type that holds ``size``, so the two
    key-space tables cost at most 5 bytes per key below 2**32 keys.
    """
    present = np.zeros(size, dtype=bool)
    present[keys] = True
    unique = np.flatnonzero(present).astype(keys.dtype, copy=False)
    inverse = np.cumsum(present, dtype=np.min_scalar_type(size))[keys].astype(np.intp)
    inverse -= 1
    first = np.full(unique.size, keys.size, dtype=np.intp)
    np.minimum.at(first, inverse, np.arange(keys.size))
    return unique, first, inverse


def _route_batch(
    sim, miss_keys: np.ndarray, routing_gen: np.random.Generator
) -> np.ndarray:
    """Attempt-1 target node per backend miss, in miss arrival order.

    Both modes resolve replica groups once per *unique* key.  Random
    routing draws its uniform picks as one batch — element-for-element
    the same stream a per-request ``integers(0, d)`` loop consumes.
    Pin routing applies the first-sight rule (least-pinned group member
    wins, lowest index on ties) to the keys the simulator's persistent
    pin table does not hold yet (``-1``), in order of first appearance,
    and scatters the picks into the table, so later runs on the same
    instance see identical stickiness.  Attempt 1 is then one gather
    from the table.
    """
    partitioner = sim._partitioner
    unique, first_idx, inverse = _dense_ids(miss_keys, sim._params.m)
    if sim._routing == "random":
        groups = partitioner.replica_groups(unique)
        draws = routing_gen.integers(0, partitioner.d, size=miss_keys.size)
        return np.asarray(groups[inverse, draws], dtype=np.int64)
    # "pin"
    pins = sim._pins
    unseen = pins[unique] < 0
    if unseen.any():
        new_keys = unique[unseen][np.argsort(first_idx[unseen])]
        groups = partitioner.replica_groups(new_keys)
        # ``argmin`` over the group's pin counts, as a strict ``<`` scan
        # (first minimum wins) over plain lists.
        counts = sim._pin_counts.tolist()
        picks = []
        for row in zip(*groups.T.tolist()):
            best = row[0]
            best_count = counts[best]
            for cand in row:
                if counts[cand] < best_count:
                    best = cand
                    best_count = counts[cand]
            picks.append(best)
            counts[best] = best_count + 1
        pins[new_keys] = picks
        sim._pin_counts[:] = counts
    return pins[miss_keys].astype(np.int64)


class _NodeStates:
    """A failure schedule replayed once: per-node change times.

    ``events`` keeps the state-changing events in schedule order (what
    the monitor and ``failure_events`` see); ``crashes`` and ``slow``
    are the per-node inputs of :func:`_fifo_drain`.
    """

    def __init__(self, schedule, n: int) -> None:
        tracker = NodeStateTracker(n)
        self.events = [event for event in schedule if tracker.apply(event)]
        self._flips: Dict[int, Tuple[List[float], List[bool]]] = {}
        self.crashes: Dict[int, List[float]] = {}
        self.slow: Dict[int, Tuple[List[float], List[float]]] = {}
        for event in self.events:
            if event.kind in ("crash", "recover"):
                times, ups = self._flips.setdefault(event.node, ([], []))
                times.append(event.time)
                ups.append(event.kind == "recover")
                if event.kind == "crash":
                    self.crashes.setdefault(event.node, []).append(event.time)
            else:
                times, factors = self.slow.setdefault(event.node, ([], []))
                times.append(event.time)
                factors.append(event.factor if event.kind == "slow" else 1.0)

    @property
    def flapping(self) -> List[int]:
        """Nodes that are down at some point of the run."""
        return list(self._flips)

    def is_up(self, node: int, t: float) -> bool:
        """State of ``node`` after every event with ``time <= t``."""
        flips = self._flips.get(node)
        if flips is None:
            return True
        k = bisect_right(flips[0], t)
        return k == 0 or flips[1][k - 1]


def _failover(sim, states: _NodeStates, miss_keys, miss_times, miss_idx, nodes):
    """Resolve attempt 1 against node state, and the single retry.

    Returns ``(first, second)``: ``first[j]`` is miss ``j``'s attempt-1
    node, or ``_RETRIED`` / ``_UNAVAILABLE``; ``second`` lists the
    :class:`_Retry` outcomes in arrival order.
    """
    partitioner = sim._partitioner
    policy = sim._chaos.retry
    retry = policy.max_attempts > 1 and partitioner.d > 1
    delay = policy.delay(1)
    first = nodes.copy()
    second = []
    for j in np.flatnonzero(np.isin(nodes, states.flapping)).tolist():
        node = int(nodes[j])
        t = float(miss_times[j])
        if states.is_up(node, t):
            continue
        if not retry:
            first[j] = _UNAVAILABLE
            continue
        first[j] = _RETRIED
        key = int(miss_keys[j])
        t2 = t + delay
        target = next(
            (
                cand
                for cand in partitioner.replica_group(key).tolist()
                if cand != node and states.is_up(cand, t2)
            ),
            -1,
        )
        second.append(_Retry(t2, 2, int(miss_idx[j]), target, t, key))
    return first, second


def _fifo_drain(
    arrival_times: List[float],
    service,
    queue_limit: int,
    crashes: Sequence[float] = (),
    scale_at: Optional[Callable[[float], float]] = None,
):
    """One node's single-server FIFO with a bounded queue and crashes.

    ``arrival_times`` are the node's dispatch times in event order.
    ``service`` is a float (deterministic service time) or a list
    indexed by service-start order (exponential times).  A node with
    slow periods passes ``scale_at(start)``, the mean service time in
    force at ``start``; ``service`` is then the raw standard-exponential
    draws, or ``None`` for deterministic service.  ``crashes`` are the
    node's crash instants: everything admitted with ``dep >= tc`` is
    lost, and the node restarts empty.

    The recurrence has the per-event scheduler's tie semantics: an
    arrival at exactly a departure time still finds the request in the
    system (arrivals fire before same-time completions) — hence the
    strict ``<`` when advancing the departed pointer.

    Returns ``(departures, dropped, lost, started)``: the served
    requests' departure times in order, the positions in
    ``arrival_times`` of queue-full drops and of crash losses, and the
    number of services started.  A served request's start is
    ``max(t, previous departure)`` (see :func:`_service_detail`).
    """
    constant = isinstance(service, float)
    departures: List[float] = []
    depart = departures.append
    dropped: List[int] = []
    lost: List[int] = []
    admitted = departed = in_service_lost = 0
    in_system_cap = queue_limit + 1
    pos = 0
    for tc in chain(crashes, (None,)):
        end = len(arrival_times) if tc is None else bisect_left(arrival_times, tc, pos)
        for t in arrival_times[pos:end]:
            while departed < admitted and departures[departed] < t:
                departed += 1
            if admitted - departed >= in_system_cap:
                dropped.append(admitted + len(dropped) + len(lost))
                continue
            start = departures[admitted - 1] if admitted > departed else t
            if scale_at is None:
                dep = start + (service if constant else service[admitted])
            else:
                scale = scale_at(start)
                dep = start + (scale if service is None else scale * service[admitted])
            depart(dep)
            admitted += 1
        if tc is None:
            break
        pos = end
        while departed < admitted and departures[departed] < tc:
            departed += 1
        gone = admitted - departed
        if not gone:
            continue
        # The lost requests are the last ``gone`` admitted ones: walk back
        # over the positions, skipping drops.
        p, k = end, len(dropped)
        for _ in range(gone):
            p -= 1
            while k and dropped[k - 1] == p:
                k -= 1
                p -= 1
            lost.append(p)
        del departures[departed:]
        admitted = departed
        # The first lost request was in service and consumed its draw;
        # the rest never started, so their draws go to later requests.
        in_service_lost += 1
        if isinstance(service, list):
            del service[departed]
    lost.sort()
    return departures, dropped, lost, len(departures) + in_service_lost


def _lindley_starts(t, s, first, counts) -> np.ndarray:
    """Guessed busy-period starts of one block, from the closed form.

    ``t`` and ``s`` are the block's arrival and service times, grouped by
    node; node ``r`` of the block holds ``counts[r]`` positions from
    ``first[r]`` on.  Arrival ``i`` starts a busy period iff
    ``t[i] > dep[i-1]``.  By Lindley, ``dep[i-1] = max_{j<i}(t[j] -
    S[j-1]) + S[i-1]``, where ``S`` is the node-local prefix sum of
    ``s``.  So ``i`` starts one iff its lead ``t[i] - S[i-1]`` exceeds
    every earlier lead of its node.  Rounding can flip a near tie, so
    the result is only a guess.
    """
    lead = np.cumsum(s)
    lead -= s
    lead -= np.repeat(lead[first], counts)
    np.subtract(t, lead, out=lead)
    lead -= lead.min()
    # Lift each node's leads above all earlier nodes' leads, so that one
    # running maximum never crosses a node boundary.
    lead += np.repeat(np.arange(counts.size) * (lead.max() + 1.0), counts)
    starts = np.empty(t.size, dtype=bool)
    np.greater(lead[1:], np.maximum.accumulate(lead)[:-1], out=starts[1:])
    starts[first] = True
    return starts


def _busy_period_pass(times, service, bounds, queue_limit: int, scalar):
    """Every node's FIFO departures in one vectorized pass.

    ``times`` are the dispatch times grouped by node, each node's in
    event order, and ``bounds`` the node offsets into them.  ``service``
    holds the service times in the same order, or is one float
    (deterministic service).  ``scalar`` marks the nodes to skip: those
    with crashes or slow periods.

    Returns ``(departures, scalar)``.  ``departures`` holds a departure
    time per position, and ``scalar`` marks the nodes that
    :func:`_fifo_drain` must drain instead: the skipped ones, those
    where a guessed busy-period start fails its exact check, and those
    with a busy period longer than ``queue_limit + 1``, where a drop is
    possible.  At those nodes' positions ``departures`` is unspecified.
    Everywhere else it equals the scalar drain's output bit for bit: the
    same adds run in the same order.
    """
    service = np.broadcast_to(service, times.shape)
    departures = np.add(times, service)  # every period's first departure
    scalar = scalar.copy()
    cap = queue_limit + 1
    heads = np.searchsorted(
        bounds, np.arange(0, times.size, _DRAIN_BLOCK), side="right"
    ) - 1
    edges = np.append(np.unique(heads), bounds.size - 1).tolist()
    for a, b in zip(edges, edges[1:]):
        lo, hi = int(bounds[a]), int(bounds[b])
        counts = np.diff(bounds[a:b + 1])
        nodes = np.flatnonzero(counts)
        counts = counts[nodes]
        nodes += a
        first = bounds[nodes] - lo
        t, s, dep = times[lo:hi], service[lo:hi], departures[lo:hi]
        starts = _lindley_starts(t, s, first, counts)
        period = np.flatnonzero(starts)
        length = np.diff(period, append=t.size)
        bad = scalar[nodes]
        bad[np.searchsorted(first, period[length > cap], side="right") - 1] = True
        if bad.any():
            keep = ~bad[np.searchsorted(first, period, side="right") - 1]
            period, length = period[keep], length[keep]
        # One-request periods are settled.  Order the rest longest first:
        # step k sets the k-th departure after the start of every period
        # longer than k, a prefix of this order.
        queued = length > 1
        period, length = period[queued], length[queued]
        longest = np.argsort(
            length.astype(np.min_scalar_type(cap)), kind="stable"
        )[::-1]
        period, length = period[longest], length[longest]
        widths = np.searchsorted(-length, -np.arange(1, length[:1].sum()))
        for k, width in enumerate(widths.tolist(), 1):
            i = period[:width] + k
            dep[i] = dep[i - 1] + s[i]
        # Check every guess exactly: a node's later arrival starts a
        # period iff it comes strictly after the previous departure.
        wrong = t[1:] > dep[:-1]
        wrong ^= starts[1:]
        wrong[first[1:] - 1] = False
        bad[np.searchsorted(first, np.flatnonzero(wrong) + 1, side="right") - 1] = True
        scalar[nodes[bad]] = True
    return departures, scalar


def _slow_scale(capacity: float, slow) -> Callable[[float], float]:
    """Mean service time under the slow factor in force at ``start``."""
    change_times, factors = slow
    scales = [1.0 / (capacity * f) for f in chain((1.0,), factors)]
    return lambda start: scales[bisect_right(change_times, start)]


def _service_detail(arrival_times, departures, dropped, lost, p):
    """``(start, dep)`` of the request at position ``p`` of a drain, or
    its status: ``"dropped"`` (queue full) or ``"lost"`` (crash)."""
    d = bisect_left(dropped, p)
    if d < len(dropped) and dropped[d] == p:
        return "dropped"
    k = bisect_left(lost, p)
    if k < len(lost) and lost[k] == p:
        return "lost"
    j = p - d - k
    t = float(arrival_times[p])
    start = t if j == 0 else max(t, float(departures[j - 1]))
    return start, float(departures[j])


def _interleave(stream_times: List[float], extras: List[tuple]) -> Iterator[tuple]:
    """Merge class-1 stream events with class-0/2 extras in event order.

    ``extras`` are ``(time, class, index, ...)`` tuples sorted by their
    first three fields.  Yields ``(position, None)`` for the stream event
    at ``position`` and ``(None, extra)`` for each extra: a node event
    (class 0) fires before a same-time arrival, a retry (class 2) after.
    """
    k = 0
    for pos, t in enumerate(stream_times):
        while k < len(extras) and (
            extras[k][0] < t or (extras[k][0] == t and extras[k][1] == 0)
        ):
            yield None, extras[k]
            k += 1
        yield pos, None
    for extra in extras[k:]:
        yield None, extra


def _stale_hits(unavailable, dispatched) -> int:
    """Unavailable events preceded by a dispatch of the same key.

    Both arguments are ``(time, class, index, key)`` events; the
    dispatch list need only cover keys that went unavailable.
    """
    first: Dict[int, tuple] = {}
    for event in dispatched:
        key = event[3]
        if key not in first or event[:3] < first[key]:
            first[key] = event[:3]
    return sum(
        1 for event in unavailable
        if event[3] in first and first[event[3]] < event[:3]
    )


def run_fast(sim, n_queries: int, trial: int):
    """One run of ``sim``'s configuration; returns its EventSimResult.

    Consumes the simulator's RNG streams (arrivals, routing, per-node
    service, chaos schedule) and publishes into its metrics registry,
    monitor and flight recorder exactly as the per-event reference
    scheduler does.
    """
    from .eventsim import EventSimResult, _latency_stats

    params = sim._params
    n = params.n
    cache = sim._cache
    chaos = sim._chaos
    context = sim._context
    tracer = context.spans
    arrivals_gen = sim._factory.generator("eventsim-arrivals", trial=trial)
    routing_gen = sim._factory.generator("eventsim-routing", trial=trial)
    with tracer.span("workload-gen"):
        keys = sim._distribution.sample(n_queries, rng=arrivals_gen)
        gaps = arrivals_gen.exponential(1.0 / params.rate, size=n_queries)
        times = np.cumsum(gaps)
        duration = float(times[-1])

    schedule = ()
    if chaos is not None:
        schedule = chaos.schedule_for(
            n, duration, rng=sim._factory.generator("chaos-schedule", trial=trial)
        )
    # A degenerate (1-layer/1-shard) tree declares no layers, so its
    # telemetry stays byte-identical to the flat cache it wraps.
    layered = getattr(cache, "HIERARCHICAL", False) and not cache.degenerate
    monitor = context.monitor if context.monitor.enabled else None
    if monitor is not None:
        monitor.begin_run(
            trial=trial, n=n, rate=params.rate, chaos=chaos is not None,
            layers=cache.widths if layered else None,
        )
    # Trace sampling is keyed-hash based: no RNG draws, so the arrival /
    # routing / service streams above stay byte-identical with it on.
    recorder = context.trace if context.trace.enabled else None
    trace_mask = None
    if recorder is not None:
        recorder.begin_run(
            trial=trial, m=params.m, chaos=chaos is not None,
            client_map=sim._distribution.client_map(),
            group_of=sim._partitioner.replica_group,
        )
        trace_mask = recorder.sample_mask(keys)

    with tracer.span("event-loop"):
        with tracer.span("kernel-resolve"):
            with tracer.span("kernel-cache"):
                hit_mask, paths = _cache_pass(cache, keys, layered)
            miss_idx = np.flatnonzero(~hit_mask)
            backend = int(miss_idx.size)
            frontend_hits = n_queries - backend
            miss_keys = keys[miss_idx]
            miss_times = times[miss_idx]
            states = _NodeStates(schedule, n)
            with tracer.span("kernel-route"):
                first = (
                    _route_batch(sim, miss_keys, routing_gen)
                    if backend else np.empty(0, dtype=np.int64)
                )
                second: List[_Retry] = []
                if states.flapping and backend:
                    first, second = _failover(
                        sim, states, miss_keys, miss_times, miss_idx, first
                    )
                # Successful dispatches: attempt-1 ones in miss order, then
                # failovers in arrival order — that is, (class, index) order.
                ok = first >= 0
                failovers = [retry for retry in second if retry.node >= 0]
                d_node, d_time = first, miss_times
                if not ok.all():
                    d_node, d_time = first[ok], miss_times[ok]
                # Group by node in event order, lexsort((index, time, node)):
                # a stable sort by time, then a stable radix sort by narrow
                # node ids.  Without appended failovers the times are
                # already non-decreasing, so the time sort is the identity.
                narrow = np.min_scalar_type(n)
                if failovers:
                    d_node = np.concatenate(
                        [d_node, np.array([e.node for e in failovers], dtype=np.int64)]
                    )
                    d_time = np.concatenate([d_time, [e.time for e in failovers]])
                    order = np.argsort(d_time, kind="stable")
                    order = order[np.argsort(d_node[order].astype(narrow), kind="stable")]
                else:
                    order = np.argsort(d_node.astype(narrow), kind="stable")
                node_arrivals = np.bincount(d_node, minlength=n).astype(np.int64)
                bounds = np.concatenate(([0], np.cumsum(node_arrivals)))
        with tracer.span("kernel-queues"):
            sorted_times = d_time[order]
            edges = bounds.tolist()
            mean_service = 1.0 / sim._capacity
            service = mean_service
            raw_draws: Dict[int, List[float]] = {}
            if sim._service == "exponential":
                # Each node's stream, drawn into its slice of one array by
                # one generator re-seeded with the node's bulk-derived state.
                service = np.empty(order.size)
                busy = np.flatnonzero(node_arrivals).tolist()
                seeded = sim._factory.pcg64_states(
                    "eventsim-service", [trial * n + node for node in busy]
                )
                stream = np.random.Generator(np.random.PCG64(0))
                for node, state in zip(busy, seeded):
                    lo, hi = edges[node], edges[node + 1]
                    stream.bit_generator.state = state
                    stream.standard_exponential(out=service[lo:hi])
                    if node in states.slow:
                        raw_draws[node] = service[lo:hi].tolist()
                service *= mean_service
            skip = np.zeros(n, dtype=bool)
            skip[list(chain(states.crashes, states.slow))] = True
            with tracer.span("kernel-drain"):
                departures, scalar = _busy_period_pass(
                    sorted_times, service, bounds, sim._queue_limit, skip
                )
            served = node_arrivals.copy()
            dropped = np.zeros(n, dtype=np.int64)
            crash_lost = 0
            started = order.size
            # Per scalar-drained node, its dropped and lost positions.
            drained: Dict[int, tuple] = {}
            unserved: List[int] = []
            fallback = np.flatnonzero(scalar & (node_arrivals > 0)).tolist()
            if fallback:
                with tracer.span("kernel-drain-scalar"):
                    for node in fallback:
                        lo, hi = edges[node], edges[node + 1]
                        scale_at = None
                        if node in states.slow:
                            scale_at = _slow_scale(sim._capacity, states.slow[node])
                            node_service = raw_draws.get(node)
                        else:
                            node_service = (
                                service if isinstance(service, float)
                                else service[lo:hi].tolist()
                            )
                        node_departures, node_dropped, node_lost, node_started = (
                            _fifo_drain(
                                sorted_times[lo:hi].tolist(), node_service,
                                sim._queue_limit, states.crashes.get(node, ()),
                                scale_at,
                            )
                        )
                        # Served requests keep their positions.
                        gone = sorted(node_dropped + node_lost)
                        departures[np.delete(np.arange(lo, hi), gone)] = (
                            node_departures
                        )
                        drained[node] = (node_dropped, node_lost)
                        unserved.extend(lo + p for p in gone)
                        served[node] = len(node_departures)
                        dropped[node] = len(gone)
                        crash_lost += len(node_lost)
                        started += node_started - (hi - lo)
            del service, raw_draws
            served_mask = np.ones(order.size, dtype=bool)
            served_mask[unserved] = False
            failover_times: Dict[int, List[float]] = {}
            for e in failovers:
                failover_times.setdefault(e.node, []).append(e.time)
            for node in sorted(failover_times):
                lo, hi = edges[node], edges[node + 1]
                node_departures = departures[lo:hi][served_mask[lo:hi]].tolist()
                if not set(failover_times[node]).isdisjoint(node_departures):
                    raise SimulationError(
                        f"node {node}: a retry arrives at exactly a departure "
                        "time, a tie the replay cannot order"
                    )
            # Latency is departure minus original arrival, per node in
            # service order, the first DEFAULT_LATENCY_SAMPLE_LIMIT each.
            total_served = order.size - len(unserved)
            sorted_origins = sorted_times
            if failovers:
                sorted_origins = np.concatenate(
                    [miss_times[ok], [e.origin for e in failovers]]
                )[order]
            latencies_arr = departures - sorted_origins
            if unserved:
                latencies_arr = latencies_arr[served_mask]
            if total_served and served.max() > DEFAULT_LATENCY_SAMPLE_LIMIT:
                rank = np.arange(total_served) - np.repeat(
                    np.cumsum(served) - served, served
                )
                latencies_arr = latencies_arr[rank < DEFAULT_LATENCY_SAMPLE_LIMIT]

        if monitor is not None or recorder is not None:
            times_list = times.tolist()
            keys_list = keys.tolist()
            outcome = np.full(n_queries, _HIT, dtype=np.int64)
            outcome[miss_idx] = first
            outcome = outcome.tolist()
        if monitor is not None:
            with tracer.span("kernel-monitor"):
                node_events = [
                    (e.time, 0, k, e.node, e.kind == "recover")
                    for k, e in enumerate(states.events)
                    if e.kind in ("crash", "recover")
                ]
                record = monitor.record_request
                for i, extra in _interleave(times_list, sorted(node_events + second)):
                    if extra is None:
                        t, key, o = times_list[i], keys_list[i], outcome[i]
                        if o >= 0:
                            record(t, key, o)
                        elif o == _HIT:
                            layer, shard = paths[i] if paths else (None, None)
                            record(t, key, layer=layer, shard=shard)
                        elif o == _UNAVAILABLE:
                            monitor.record_unavailable(t, key)
                    elif extra[1] == 0:  # (time, 0, k, node, up)
                        monitor.record_node_event(extra[0], extra[3], up=extra[4])
                    elif extra.node >= 0:
                        record(extra.time, extra.key, extra.node)
                    else:
                        monitor.record_unavailable(extra.time, extra.key)
        if recorder is not None:
            with tracer.span("kernel-trace"):
                # Dispatch q sits at sorted position rank[q], in the drain
                # of node d_node[q].
                rank = np.empty(order.size, dtype=np.int64)
                rank[order] = np.arange(order.size, dtype=np.int64)
                rank = rank.tolist()
                d_nodes = d_node.tolist()
                n_first = int(ok.sum())
                dispatch_of = np.full(n_queries, -1, dtype=np.int64)
                dispatch_of[miss_idx[ok]] = np.arange(n_first)
                dispatch_of = dispatch_of.tolist()
                for k, e in enumerate(failovers):
                    dispatch_of[e.index] = n_first + k
                # Served departures in node-then-service order, and each
                # node's offset there.
                served_departures = departures[served_mask]
                offsets = (bounds[:-1] - (np.cumsum(dropped) - dropped)).tolist()

                def backend_record(t, key, i, node, attempts, t0):
                    rec = recorder.record_backend(t, key, i, node, attempts=attempts)
                    q = dispatch_of[i]
                    node = d_nodes[q]
                    lo, hi = edges[node], edges[node + 1]
                    node_dropped, node_lost = drained.get(node, ((), ()))
                    detail = _service_detail(
                        sorted_times[lo:hi], served_departures[offsets[node]:],
                        node_dropped, node_lost, rank[q] - lo,
                    )
                    if isinstance(detail, str):
                        rec["status"] = detail
                    else:
                        start, dep = detail
                        rec["wait"] = start - t0
                        rec["service"] = dep - start

                sampled = np.flatnonzero(trace_mask).tolist()
                extras = [e for e in second if trace_mask[e.index]]
                for s, extra in _interleave([times_list[i] for i in sampled], extras):
                    if extra is None:
                        i = sampled[s]
                        t, key, o = times_list[i], keys_list[i], outcome[i]
                        if o >= 0:
                            backend_record(t, key, i, o, 1, t)
                        elif o == _HIT:
                            layer, shard = paths[i] if paths else (None, None)
                            recorder.record_hit(t, key, i, layer=layer, shard=shard)
                        elif o == _UNAVAILABLE:
                            recorder.record_unavailable(t, key, i, attempts=1)
                    elif extra.node >= 0:
                        backend_record(
                            extra.time, extra.key, extra.index, extra.node, 2,
                            extra.origin,
                        )
                    else:
                        recorder.record_unavailable(
                            extra.time, extra.key, extra.index, attempts=2
                        )

    with tracer.span("report"):
        arrival_loads = LoadVector(
            loads=node_arrivals.astype(float) / duration, total_rate=params.rate
        )
        unavailable = [
            (float(times[i]), 1, i, int(keys[i]))
            for i in miss_idx[first == _UNAVAILABLE].tolist()
        ] + [(e.time, 2, e.index, e.key) for e in second if e.node < 0]
        stale_hits = 0
        if unavailable and chaos.serve_stale:
            lost_keys = {event[3] for event in unavailable}
            dispatched = [
                (float(times[i]), 1, i, int(keys[i]))
                for i in miss_idx[ok & np.isin(miss_keys, list(lost_keys))].tolist()
            ] + [(e.time, 2, e.index, e.key) for e in failovers if e.key in lost_keys]
            stale_hits = _stale_hits(unavailable, dispatched)
        chaos_counts = {
            "failure_events": len(states.events),
            "retries": len(second),
            "failovers": len(failovers),
            "unavailable": len(unavailable),
            "stale_hits": stale_hits,
            "crash_lost": crash_lost,
        }
        metrics = context.metrics
        if metrics.enabled:
            # The per-event scheduler flushes its counters once per run:
            # every arrival, service start, schedule event and retry
            # fired, and the queue drained.
            metrics.counter("events_fired_total").inc(
                n_queries + started + len(schedule) + len(second)
            )
            metrics.gauge("events_pending").set(0)
            sim._publish_run_metrics(
                n_queries, frontend_hits, backend,
                node_arrivals, served, dropped, latencies_arr,
            )
            if chaos is not None:
                for name in (
                    "failure_events", "retries", "failovers",
                    "unavailable", "stale_hits", "crash_lost",
                ):
                    metrics.counter(f"chaos_{name}_total").inc(chaos_counts[name])
        suspects = None
        attribution_alerts = None
        if recorder is not None:
            trace_summary = recorder.finalize(duration)
            if trace_summary is not None:
                suspects = trace_summary["suspects"]
                attribution_alerts = trace_summary["alerts"]
        if monitor is not None:
            monitor.finalize(
                duration,
                suspects=suspects,
                attribution_alerts=attribution_alerts,
            )

    latency_mean, latency_p50, latency_p95, latency_p99 = _latency_stats(
        latencies_arr
    )
    return EventSimResult(
        duration=duration,
        frontend_hits=frontend_hits,
        backend_queries=backend,
        served=served,
        dropped=dropped,
        arrival_loads=arrival_loads,
        normalized_max=arrival_loads.normalized_max,
        drop_rate=float(dropped.sum() / backend) if backend else 0.0,
        latency_mean=latency_mean,
        latency_p50=latency_p50,
        latency_p95=latency_p95,
        latency_p99=latency_p99,
        cache_hit_rate=frontend_hits / n_queries,
        **chaos_counts,
    )
