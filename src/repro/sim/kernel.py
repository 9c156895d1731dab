"""Batched struct-of-arrays event kernel (``engine="fast"``).

The legacy scheduler pays interpreter overhead per event: one closure
allocation and one heap operation per arrival and per completion, plus a
Python cache lookup and routing call per request.  For the common
measurement configuration — a static front-end cache, stateless-enough
routing and no fault injection — every one of those decisions is known
before the first event fires, so this kernel resolves them in bulk:

- **hit/miss** — one vectorized membership test of the sampled key
  stream against the cache's fixed resident set;
- **routing** — replica groups gathered per unique key, pin assignments
  resolved in first-appearance order (mutating the simulator's sticky
  pin state exactly like the legacy path), random picks drawn as one
  ``integers(0, d, size=n_miss)`` batch;
- **service times** — one ``standard_exponential`` batch per node
  (scaled by ``1/rate``), consumed in service-start order;
- **queueing** — per node, a tight loop over primitive floats applying
  the single-server FIFO recurrence ``start = max(t, dep_prev)``,
  ``dep = start + s`` with drop-on-full admission.

The per-node loop stays in Python on purpose: the departure recurrence
is sequential, and evaluating it with the same scalar float operations
as :class:`~repro.sim.queueing.NodeServer` is what keeps the kernel
**bit-identical** to the legacy engine — the vectorized closed form
(``np.maximum.accumulate``) is algebraically equal but not IEEE-754
identical.  Identity holds for results, metrics exports, monitor
telemetry and RNG stream consumption; ``tests/test_kernel_differential.py``
pins it per configuration and the golden eventsim fixture pins it
against history.

Configurations the batch transform cannot express fall back to the
legacy scheduler (see :func:`supports`): caches whose residency mutates
per access (LRU family), least-outstanding routing (depends on live
queue depths), and chaos schedules (node state changes mid-run).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..obs.tracer import as_tracer
from ..types import LoadVector
from .queueing import DEFAULT_LATENCY_SAMPLE_LIMIT

__all__ = ["supports", "run_fast"]


def supports(sim) -> bool:
    """Whether the batched kernel can replay ``sim`` exactly.

    Requires a statically-resident cache (hit/miss precomputable), pin
    or random routing (resolvable without live queue state) and no
    chaos schedule (no mid-run node state changes).

    Hierarchical caches are rejected outright, *before* the residency
    check: a :class:`~repro.cache.tree.CacheTree` of perfect caches
    reports ``STATIC_RESIDENCY`` per shard, but residency migrates
    between layers on every miss and hits must be attributed to a
    (layer, shard) pair — the single-resident-set precomputation would
    silently honor only the edge layer.
    """
    return (
        sim._chaos is None
        and sim._routing in ("pin", "random")
        and not getattr(sim._cache, "HIERARCHICAL", False)
        and getattr(sim._cache, "STATIC_RESIDENCY", False)
    )


def _static_hits(cache, keys: np.ndarray) -> np.ndarray:
    """Vectorized hit mask against a static cache's resident set."""
    if cache.capacity == 0 or len(cache) == 0:
        return np.zeros(keys.shape, dtype=bool)
    resident = np.fromiter(cache.keys(), dtype=np.int64)
    return np.isin(keys, resident)


def _route_batch(
    sim, miss_keys: np.ndarray, routing_gen: np.random.Generator
) -> np.ndarray:
    """Target node per backend miss, consuming RNG like the legacy path.

    Both modes resolve replica groups once per *unique* key.  Random
    routing draws its uniform picks as one batch — element-for-element
    the same stream a per-request ``integers(0, d)`` loop consumes.
    Pin routing replays the legacy first-sight rule (least-pinned group
    member wins, lowest index on ties) over unique keys in order of
    first appearance, mutating the simulator's persistent pin state so
    later runs on the same instance see identical stickiness.
    """
    cluster = sim._cluster
    if sim._routing == "random":
        unique, inverse = np.unique(miss_keys, return_inverse=True)
        groups = cluster.partitioner.replica_groups(unique)
        draws = routing_gen.integers(0, cluster.d, size=miss_keys.size)
        return np.asarray(groups[inverse, draws], dtype=np.int64)
    # "pin"
    unique, first_idx, inverse = np.unique(
        miss_keys, return_index=True, return_inverse=True
    )
    pins = sim._pins
    unique_keys = unique.tolist()
    unseen = sorted(
        (first, key)
        for first, key in zip(first_idx.tolist(), unique_keys)
        if key not in pins
    )
    if unseen:
        new_keys = np.array([key for _, key in unseen], dtype=np.int64)
        groups = cluster.partitioner.replica_groups(new_keys)
        # The legacy ``argmin`` over the group's pin counts, as a strict
        # ``<`` scan (first minimum wins) over plain lists.
        counts = sim._pin_counts.tolist()
        for key, row in zip(new_keys.tolist(), zip(*groups.T.tolist())):
            best = row[0]
            best_count = counts[best]
            for cand in row:
                if counts[cand] < best_count:
                    best = cand
                    best_count = counts[cand]
            pins[key] = best
            counts[best] = best_count + 1
        sim._pin_counts[:] = counts
    assigned = np.fromiter(
        (pins[key] for key in unique_keys), dtype=np.int64, count=unique.size
    )
    return assigned[inverse]


def _fifo_drain(
    arrival_times: List[float],
    service_times,
    queue_limit: int,
    sample_limit: int = DEFAULT_LATENCY_SAMPLE_LIMIT,
    trace_out: Optional[List[Optional[Tuple[float, float]]]] = None,
) -> Tuple[int, int, List[float]]:
    """Single-server FIFO with a bounded queue, as scalar float math.

    ``service_times`` is either a float (deterministic service) or a
    list indexed by admission order (pre-drawn exponential samples).
    Returns ``(served, dropped, latency_samples)``.  The recurrence and
    the drop rule mirror :class:`~repro.sim.queueing.NodeServer` under
    the legacy scheduler, including the tie semantics: an arrival at
    exactly a departure time still finds the request in the system,
    because the scheduler fires arrivals (scheduled first) before
    completions at equal timestamps — hence the strict ``<`` when
    advancing the departed pointer.

    ``trace_out`` (flight-recorder runs only) collects one entry per
    arrival in order: ``(service_start, departure)`` for admitted
    requests, ``None`` for drops.  ``start`` and ``dep`` here are the
    same scalar float expressions :class:`~repro.sim.queueing.NodeServer`
    evaluates, so traced ``wait``/``service`` match the legacy engine
    bit-for-bit.
    """
    constant = isinstance(service_times, float)
    departures: List[float] = []
    latencies: List[float] = []
    record = latencies.append
    depart = departures.append
    admitted = 0
    departed = 0
    dropped = 0
    in_system_cap = queue_limit + 1
    for t in arrival_times:
        while departed < admitted and departures[departed] < t:
            departed += 1
        if admitted - departed >= in_system_cap:
            dropped += 1
            if trace_out is not None:
                trace_out.append(None)
            continue
        start = departures[admitted - 1] if admitted > departed else t
        service = service_times if constant else service_times[admitted]
        dep = start + service
        depart(dep)
        admitted += 1
        if len(latencies) < sample_limit:
            record(dep - t)
        if trace_out is not None:
            trace_out.append((start, dep))
    return admitted, dropped, latencies


def run_fast(sim, n_queries: int, trial: int):
    """One batched run; drop-in replacement for the legacy event loop.

    Consumes the same RNG streams in the same order as the legacy
    scheduler and returns a bit-identical
    :class:`~repro.sim.eventsim.EventSimResult`.  Callers must have
    checked :func:`supports` first.
    """
    from .eventsim import EventSimResult, _latency_stats

    params = sim._params
    n = params.n
    tracer = as_tracer(sim._tracer)
    arrivals_gen = sim._factory.generator("eventsim-arrivals", trial=trial)
    routing_gen = sim._factory.generator("eventsim-routing", trial=trial)
    with tracer.span("workload-gen"):
        keys = sim._distribution.sample(n_queries, rng=arrivals_gen)
        gaps = arrivals_gen.exponential(1.0 / params.rate, size=n_queries)
        times = np.cumsum(gaps)
        duration = float(times[-1])

    monitor = sim._monitor
    if monitor is not None:
        monitor.begin_run(trial=trial, n=n, rate=params.rate, chaos=False)
    # Trace sampling is keyed-hash based: no RNG draws, so the arrival /
    # routing / service streams above stay byte-identical with it on.
    recorder = sim._trace
    trace_mask = None
    if recorder is not None:
        recorder.begin_run(
            trial=trial, m=params.m, chaos=False,
            client_map=sim._distribution.client_map(),
            group_of=sim._cluster.replica_group,
        )
        trace_mask = recorder.sample_mask(keys)

    with tracer.span("event-loop"):
        with tracer.span("kernel-resolve"):
            hit_mask = _static_hits(sim._cache, keys)
            frontend_hits = int(hit_mask.sum())
            backend = n_queries - frontend_hits
            stats = sim._cache.stats
            stats.hits += frontend_hits
            stats.misses += backend
            if backend:
                miss_mask = ~hit_mask
                nodes = _route_batch(sim, keys[miss_mask], routing_gen)
                miss_times = times[miss_mask]
                node_arrivals = np.bincount(nodes, minlength=n).astype(np.int64)
            else:
                nodes = np.empty(0, dtype=np.int64)
                miss_times = np.empty(0)
                node_arrivals = np.zeros(n, dtype=np.int64)
        if monitor is not None:
            with tracer.span("kernel-monitor"):
                node_iter = iter(nodes.tolist())
                record = monitor.record_request
                for t, key, hit in zip(
                    times.tolist(), keys.tolist(), hit_mask.tolist()
                ):
                    if hit:
                        record(t, key)
                    else:
                        record(t, key, next(node_iter))
        with tracer.span("kernel-queues"):
            served = np.zeros(n, dtype=np.int64)
            dropped = np.zeros(n, dtype=np.int64)
            per_node_latencies: List[List[float]] = []
            node_details: List[Optional[List]] = [None] * n
            if backend:
                order = np.argsort(nodes, kind="stable")
                sorted_times = miss_times[order]
                bounds = np.searchsorted(nodes[order], np.arange(n + 1))
                exponential = sim._service == "exponential"
                mean_service = 1.0 / sim._capacity
                for node in range(n):
                    lo, hi = int(bounds[node]), int(bounds[node + 1])
                    if lo == hi:
                        continue
                    if exponential:
                        service_gen = sim._factory.generator(
                            "eventsim-service", trial=trial * n + node
                        )
                        service = (
                            mean_service
                            * service_gen.standard_exponential(hi - lo)
                        ).tolist()
                    else:
                        service = mean_service
                    detail: Optional[List] = (
                        [] if recorder is not None else None
                    )
                    node_served, node_dropped, latencies = _fifo_drain(
                        sorted_times[lo:hi].tolist(), service,
                        sim._queue_limit, trace_out=detail,
                    )
                    node_details[node] = detail
                    served[node] = node_served
                    dropped[node] = node_dropped
                    if latencies:
                        per_node_latencies.append(latencies)
        if recorder is not None:
            with tracer.span("kernel-trace"):
                # Replay only the sampled stream positions, in global
                # arrival order — the same emission order the legacy
                # scheduler produces.
                if backend:
                    miss_index = np.cumsum(miss_mask) - 1
                    ranks = np.empty(backend, dtype=np.int64)
                    ranks[order] = np.arange(backend, dtype=np.int64)
                    local_ranks = ranks - bounds[nodes]
                for i in np.flatnonzero(trace_mask).tolist():
                    t = float(times[i])
                    key = int(keys[i])
                    if hit_mask[i]:
                        recorder.record_hit(t, key, i)
                        continue
                    pos = int(miss_index[i])
                    node = int(nodes[pos])
                    rec = recorder.record_backend(t, key, i, node)
                    detail = node_details[node][int(local_ranks[pos])]
                    if detail is None:
                        rec["status"] = "dropped"
                    else:
                        start, dep = detail
                        rec["wait"] = start - t
                        rec["service"] = dep - start

    with tracer.span("report"):
        total_served = int(served.sum())
        latencies_arr = (
            np.concatenate([np.asarray(lat) for lat in per_node_latencies])
            if total_served
            else np.empty(0)
        )
        arrival_loads = LoadVector(
            loads=node_arrivals.astype(float) / duration, total_rate=params.rate
        )
        metrics = sim._metrics
        if metrics is not None:
            # The legacy scheduler flushes its event counters once per
            # run: every arrival plus one completion per served request
            # fired, and the queue drained.
            metrics.counter("events_fired_total").inc(n_queries + total_served)
            metrics.gauge("events_pending").set(0)
            sim._publish_run_metrics(
                n_queries, frontend_hits, backend,
                node_arrivals, served, dropped, latencies_arr,
            )
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
    )
