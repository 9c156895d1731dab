"""Reference implementation of the event engine: one event at a time.

This is the per-event binary-heap scheduler the simulator used before
the batched kernel (:mod:`repro.sim.kernel`) learned to replay every
configuration.  It stays here, outside the package, as the oracle the
differential suites compare the kernel against: :func:`run_oracle`
replays an :class:`~repro.sim.eventsim.EventDrivenSimulator`'s
configuration request by request — a closure and a heap push per
arrival, completion, retry and failure event — and returns the same
:class:`~repro.sim.eventsim.EventSimResult` the kernel must produce bit
for bit, publishing into the simulator's metrics registry, monitor and
flight recorder along the way.

Semantics the kernel has to match (and that this code defines):

- events fire in ``(time, sequence number)`` order, so failure events
  (scheduled first) precede same-time arrivals, and arrivals precede
  every same-time retry and completion;
- the front-end cache is accessed synchronously when an arrival fires;
- a crash loses everything queued or in service on the node; the stale
  completion event still fires (into a newer epoch) and is ignored.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable, Deque, List, Optional, Set, Tuple, Union

import numpy as np

from repro.chaos.schedule import NodeStateTracker
from repro.exceptions import ConfigurationError, SimulationError
from repro.rng import as_generator
from repro.sim.eventsim import EventSimResult, _latency_stats
from repro.sim.kernel import DEFAULT_LATENCY_SAMPLE_LIMIT
from repro.types import LoadVector

__all__ = ["EventScheduler", "NodeServer", "Request", "run_oracle"]

RngLike = Union[None, int, np.random.Generator]

#: An event callback receives the scheduler and the firing time.
EventCallback = Callable[["EventScheduler", float], None]


class EventScheduler:
    """Minimal binary-heap event scheduler.

    Events fire in non-decreasing time order; ties break by insertion
    order (a monotone sequence number), which keeps runs deterministic.
    Callbacks may schedule further events, including at the current
    time.
    """

    def __init__(self, metrics=None) -> None:
        self._heap: List[Tuple[float, int, EventCallback, tuple]] = []
        self._seq = 0
        self._now = 0.0
        self._processed = 0
        # Optional repro.obs.MetricsRegistry; counters are flushed once
        # per run() call, never inside the event loop.
        self._metrics = metrics

    @property
    def now(self) -> float:
        """Current simulation time (last fired event's time)."""
        return self._now

    @property
    def pending(self) -> int:
        """Events waiting in the queue."""
        return len(self._heap)

    @property
    def processed(self) -> int:
        """Events fired so far."""
        return self._processed

    def schedule(
        self, time: float, callback: EventCallback, args: tuple = ()
    ) -> None:
        """Enqueue ``callback(scheduler, time, *args)`` to fire at ``time``.

        Scheduling in the past is a logic error and raises immediately.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time:.6f}: simulation time is already {self._now:.6f}"
            )
        heapq.heappush(self._heap, (time, self._seq, callback, args))
        self._seq += 1

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Fire events until the queue drains (or a limit is hit).

        ``until`` stops before firing any event later than it (the event
        stays queued); ``max_events`` guards against runaway feedback
        loops.  Returns the number of events fired by this call.
        """
        fired = 0
        while self._heap:
            time, _, callback, args = self._heap[0]
            if until is not None and time > until:
                break
            if max_events is not None and fired >= max_events:
                raise SimulationError(f"exceeded max_events={max_events}; runaway event loop?")
            heapq.heappop(self._heap)
            self._now = time
            callback(self, time, *args)
            fired += 1
            self._processed += 1
        if self._metrics is not None:
            self._metrics.counter("events_fired_total").inc(fired)
            self._metrics.gauge("events_pending").set(len(self._heap))
        return fired


class Request:
    """One client query as seen by the back end.

    ``arrival_time`` is when the query reached the system; ``trace`` is
    the live flight-recorder record of a sampled request (completed in
    place by the queue), or ``None``.
    """

    __slots__ = ("key", "arrival_time", "trace")

    def __init__(
        self, key: int, arrival_time: float, trace: Optional[dict] = None
    ) -> None:
        self.key = key
        self.arrival_time = arrival_time
        self.trace = trace


class NodeServer:
    """A single back-end node: one server, bounded FIFO queue.

    ``queue_limit`` caps the requests waiting (excluding the one in
    service); ``service`` is ``"deterministic"`` (M/D/1) or
    ``"exponential"`` (M/M/1); ``latency_sample_limit`` caps the
    retained latency samples (uniform head sample).
    """

    __slots__ = (
        "node_id",
        "service_rate",
        "queue_limit",
        "_service",
        "_rng",
        "_queue",
        "_in_service",
        "_latency_sample_limit",
        "down",
        "_epoch",
        "_rate_factor",
        "arrivals",
        "served",
        "dropped",
        "crash_lost",
        "busy_time",
        "latencies",
        "_service_started",
    )

    def __init__(
        self,
        node_id: int,
        service_rate: float,
        queue_limit: int = 64,
        service: str = "deterministic",
        rng: RngLike = None,
        latency_sample_limit: int = DEFAULT_LATENCY_SAMPLE_LIMIT,
    ) -> None:
        if service_rate <= 0:
            raise ConfigurationError(f"service_rate must be positive, got {service_rate}")
        if queue_limit < 0:
            raise ConfigurationError(f"queue_limit must be non-negative, got {queue_limit}")
        if service not in ("deterministic", "exponential"):
            raise ConfigurationError(
                f"service must be 'deterministic' or 'exponential', got {service!r}"
            )
        self.node_id = node_id
        self.service_rate = service_rate
        self.queue_limit = queue_limit
        self._service = service
        self._rng = as_generator(rng, f"node-server-{node_id}")
        self._queue: Deque[Request] = deque()
        self._in_service: Optional[Request] = None
        self._latency_sample_limit = latency_sample_limit
        # A down node rejects arrivals; crashing bumps the epoch so the
        # stale completion event already in the scheduler becomes a no-op.
        self.down = False
        self._epoch = 0
        self._rate_factor = 1.0
        self.arrivals = 0
        self.served = 0
        self.dropped = 0
        self.crash_lost = 0
        self.busy_time = 0.0
        self.latencies: List[float] = []
        self._service_started = 0.0

    @property
    def outstanding(self) -> int:
        """Requests on this node right now (queued + in service)."""
        return len(self._queue) + (1 if self._in_service is not None else 0)

    def arrive(self, scheduler: EventScheduler, request: Request) -> bool:
        """Offer a request at the current simulation time.

        Returns False (and counts a drop) when the queue is full.
        """
        self.arrivals += 1
        if self.down:
            self.dropped += 1
            if request.trace is not None:
                request.trace["status"] = "dropped"
            return False
        if self._in_service is None:
            self._begin_service(scheduler, request, scheduler.now)
            return True
        if len(self._queue) >= self.queue_limit:
            self.dropped += 1
            if request.trace is not None:
                request.trace["status"] = "dropped"
            return False
        self._queue.append(request)
        return True

    def crash(self, now: float) -> int:
        """Hard-fail the node: everything queued or in service is lost."""
        self._epoch += 1
        lost = len(self._queue)
        for request in self._queue:
            if request.trace is not None:
                request.trace["status"] = "lost"
        self._queue.clear()
        if self._in_service is not None:
            lost += 1
            if self._in_service.trace is not None:
                self._in_service.trace["status"] = "lost"
            self.busy_time += now - self._service_started
            self._in_service = None
        self.dropped += lost
        self.crash_lost += lost
        self.down = True
        return lost

    def recover(self, now: float) -> None:
        """Bring a crashed node back online (empty queue, idle server)."""
        del now
        self.down = False

    def set_rate_factor(self, factor: float) -> None:
        """Scale future service times by ``1/factor`` (slow-node state)."""
        if factor <= 0:
            raise ConfigurationError(f"rate factor must be positive, got {factor}")
        self._rate_factor = factor

    def _service_time(self) -> float:
        rate = self.service_rate * self._rate_factor
        if self._service == "deterministic":
            return 1.0 / rate
        return float(self._rng.exponential(1.0 / rate))

    def _begin_service(
        self, scheduler: EventScheduler, request: Request, start: float
    ) -> None:
        self._in_service = request
        self._service_started = start
        scheduler.schedule(
            start + self._service_time(), self._on_complete, (self._epoch,)
        )

    def _on_complete(
        self, scheduler: EventScheduler, time: float, epoch: int
    ) -> None:
        if epoch == self._epoch:
            self._complete(scheduler, time)

    def _complete(self, scheduler: EventScheduler, time: float) -> None:
        request = self._in_service
        self._in_service = None
        self.served += 1
        self.busy_time += time - self._service_started
        if request.trace is not None:
            request.trace["wait"] = self._service_started - request.arrival_time
            request.trace["service"] = time - self._service_started
        if len(self.latencies) < self._latency_sample_limit:
            self.latencies.append(time - request.arrival_time)
        if self._queue:
            self._begin_service(scheduler, self._queue.popleft(), time)

    def utilization(self, duration: float) -> float:
        """Fraction of ``duration`` the server spent busy."""
        if duration <= 0:
            return 0.0
        return min(1.0, self.busy_time / duration)


def _route(sim, key: int, gen: np.random.Generator) -> int:
    """Replica choice for attempt 1: uniform pick, or the sticky pin."""
    group = sim._partitioner.replica_group(key)
    if sim._routing == "random":
        return int(group[int(gen.integers(0, group.size))])
    pinned = int(sim._pins[key])
    if pinned < 0:
        counts = sim._pin_counts[group]
        pinned = int(group[int(np.argmin(counts))])
        sim._pins[key] = pinned
        sim._pin_counts[pinned] += 1
    return pinned


def run_oracle(sim, n_queries: int, trial: int = 0) -> EventSimResult:
    """Replay ``sim``'s configuration one event at a time.

    Reads the simulator's configuration and persistent pin state the
    same way :func:`repro.sim.kernel.run_fast` does, and consumes the
    same RNG streams; the two must agree bit for bit.
    """
    if n_queries < 1:
        raise SimulationError(f"need at least one query, got {n_queries}")
    params = sim._params
    context = sim._context
    tracer = context.spans
    arrivals_gen = sim._factory.generator("eventsim-arrivals", trial=trial)
    routing_gen = sim._factory.generator("eventsim-routing", trial=trial)
    with tracer.span("workload-gen"):
        keys = sim._distribution.sample(n_queries, rng=arrivals_gen)
        gaps = arrivals_gen.exponential(1.0 / params.rate, size=n_queries)
        times = np.cumsum(gaps)
        duration = float(times[-1])

    scheduler = EventScheduler(
        metrics=context.metrics if context.metrics.enabled else None
    )
    servers = [
        NodeServer(
            node_id=i,
            service_rate=sim._capacity,
            queue_limit=sim._queue_limit,
            service=sim._service,
            rng=sim._factory.generator("eventsim-service", trial=trial * params.n + i),
        )
        for i in range(params.n)
    ]

    frontend_hits = 0
    backend = 0
    node_arrivals = np.zeros(params.n, dtype=np.int64)
    monitor = context.monitor if context.monitor.enabled else None
    chaos = sim._chaos
    tracker: Optional[NodeStateTracker] = None
    schedule = None
    chaos_stats = {
        "unavailable": 0, "stale_hits": 0, "retries": 0,
        "failovers": 0, "events": 0,
    }
    fetched_keys: Set[int] = set()
    if chaos is not None:
        schedule = chaos.schedule_for(
            params.n, duration,
            rng=sim._factory.generator("chaos-schedule", trial=trial),
        )
        tracker = NodeStateTracker(params.n)
    cache = sim._cache
    tree = cache if getattr(cache, "HIERARCHICAL", False) else None
    layered = tree is not None and not tree.degenerate
    if monitor is not None:
        monitor.begin_run(
            trial=trial, n=params.n, rate=params.rate,
            chaos=chaos is not None,
            layers=tree.widths if layered else None,
        )
    recorder = context.trace if context.trace.enabled else None
    trace_mask = None
    if recorder is not None:
        recorder.begin_run(
            trial=trial, m=params.m, chaos=chaos is not None,
            client_map=sim._distribution.client_map(),
            group_of=sim._partitioner.replica_group,
        )
        trace_mask = recorder.sample_mask(keys)

    def make_failure_event(event):
        def fire(sched: EventScheduler, now: float) -> None:
            if not tracker.apply(event):
                return
            chaos_stats["events"] += 1
            server = servers[event.node]
            if event.kind == "crash":
                server.crash(now)
                if monitor is not None:
                    monitor.record_node_event(now, event.node, up=False)
            elif event.kind == "recover":
                server.recover(now)
                if monitor is not None:
                    monitor.record_node_event(now, event.node, up=True)
            elif event.kind == "slow":
                server.set_rate_factor(event.factor)
            else:
                server.set_rate_factor(1.0)

        return fire

    def chaos_dispatch(
        sched: EventScheduler, now: float, key: int, t0: float,
        attempt: int, tried: Tuple[int, ...],
        traced: bool = False, index: int = 0,
    ) -> None:
        policy = chaos.retry
        if attempt == 1:
            node: Optional[int] = _route(sim, key, routing_gen)
        else:
            # Failover: the first untried, currently-up group member.
            node = None
            for cand in sim._partitioner.replica_group(key):
                cand = int(cand)
                if cand not in tried and tracker.is_up(cand):
                    node = cand
                    break
        if node is not None and tracker.is_up(node):
            node_arrivals[node] += 1
            if monitor is not None:
                monitor.record_request(now, key, node)
            trace_rec = (
                recorder.record_backend(now, key, index, node, attempts=attempt)
                if traced else None
            )
            servers[node].arrive(
                sched, Request(key=key, arrival_time=t0, trace=trace_rec)
            )
            fetched_keys.add(key)
            if attempt > 1:
                chaos_stats["failovers"] += 1
            return
        exhausted = attempt >= policy.max_attempts
        if node is not None:
            tried = tried + (node,)
            exhausted = exhausted or len(tried) >= sim._partitioner.d
        if node is None or exhausted:
            chaos_stats["unavailable"] += 1
            if chaos.serve_stale and key in fetched_keys:
                chaos_stats["stale_hits"] += 1
            if monitor is not None:
                monitor.record_unavailable(now, key)
            if traced:
                recorder.record_unavailable(now, key, index, attempts=attempt)
            return
        chaos_stats["retries"] += 1
        sched.schedule(
            now + policy.delay(attempt),
            lambda s, t: chaos_dispatch(
                s, t, key, t0, attempt + 1, tried, traced, index
            ),
        )

    def make_arrival(key: int, traced: bool = False, index: int = 0):
        def fire(sched: EventScheduler, now: float) -> None:
            nonlocal frontend_hits, backend
            if cache.access(key):
                frontend_hits += 1
                layer = shard = None
                if layered:
                    layer, shard = cache.last_hit
                if monitor is not None:
                    monitor.record_request(now, key, layer=layer, shard=shard)
                if traced:
                    recorder.record_hit(now, key, index, layer=layer, shard=shard)
                return
            backend += 1
            if tracker is not None:
                chaos_dispatch(sched, now, key, now, 1, (), traced, index)
                return
            node = _route(sim, key, routing_gen)
            node_arrivals[node] += 1
            if monitor is not None:
                monitor.record_request(now, key, node)
            trace_rec = (
                recorder.record_backend(now, key, index, node) if traced else None
            )
            servers[node].arrive(
                sched, Request(key=key, arrival_time=now, trace=trace_rec)
            )

        return fire

    with tracer.span("event-loop"):
        if schedule is not None:
            # Failure events go in first, so at equal timestamps a crash
            # lands before the colliding arrival.
            for event in schedule:
                scheduler.schedule(float(event.time), make_failure_event(event))
        traced_flags = (
            [False] * n_queries if trace_mask is None else trace_mask.tolist()
        )
        for index, (key, t, traced) in enumerate(
            zip(keys.tolist(), times.tolist(), traced_flags)
        ):
            scheduler.schedule(float(t), make_arrival(key, traced, index))
        scheduler.run()

    with tracer.span("report"):
        served = np.array([s.served for s in servers], dtype=np.int64)
        dropped = np.array([s.dropped for s in servers], dtype=np.int64)
        latencies = np.concatenate(
            [np.asarray(s.latencies) for s in servers]
        ) if served.sum() else np.empty(0)
        arrival_loads = LoadVector(
            loads=node_arrivals.astype(float) / duration, total_rate=params.rate
        )
        crash_lost = int(sum(s.crash_lost for s in servers))
        metrics = context.metrics if context.metrics.enabled else None
        if metrics is not None:
            sim._publish_run_metrics(
                n_queries, frontend_hits, backend,
                node_arrivals, served, dropped, latencies,
            )
            if chaos is not None:
                metrics.counter("chaos_failure_events_total").inc(chaos_stats["events"])
                metrics.counter("chaos_retries_total").inc(chaos_stats["retries"])
                metrics.counter("chaos_failovers_total").inc(chaos_stats["failovers"])
                metrics.counter("chaos_unavailable_total").inc(chaos_stats["unavailable"])
                metrics.counter("chaos_stale_hits_total").inc(chaos_stats["stale_hits"])
                metrics.counter("chaos_crash_lost_total").inc(crash_lost)
        suspects = None
        attribution_alerts = None
        if recorder is not None:
            trace_summary = recorder.finalize(duration)
            if trace_summary is not None:
                suspects = trace_summary["suspects"]
                attribution_alerts = trace_summary["alerts"]
        if monitor is not None:
            monitor.finalize(
                duration, suspects=suspects, attribution_alerts=attribution_alerts,
            )
    latency_mean, latency_p50, latency_p95, latency_p99 = _latency_stats(latencies)
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
        unavailable=chaos_stats["unavailable"],
        stale_hits=chaos_stats["stale_hits"],
        retries=chaos_stats["retries"],
        failovers=chaos_stats["failovers"],
        crash_lost=crash_lost,
        failure_events=chaos_stats["events"],
    )
