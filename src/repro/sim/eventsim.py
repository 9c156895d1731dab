"""Request-level event-driven simulation of the whole Figure-1 system.

Where the Monte-Carlo engine computes steady-state placements, this
engine replays individual requests through a *real* cache policy, a
partitioned cluster and per-node queues with capacities — so saturation,
drops and latency become observable rather than inferred.  The
cross-validation test (``tests/test_table_eventsim.py``) confirms both
engines agree on the paper's headline quantity (the normalized max
load) within sampling noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..cache.base import Cache
from ..cache.perfect import PerfectCache
from ..chaos.config import ChaosConfig
from ..cluster.partitioner import Partitioner, RandomTablePartitioner
from ..core.notation import SystemParameters
from ..exceptions import ConfigurationError, SimulationError
from ..obs.context import NULL_CONTEXT, RunContext
from ..rng import RngFactory
from ..types import LoadVector
from ..workload.distributions import KeyDistribution
from . import kernel as _kernel

__all__ = ["EventDrivenSimulator", "EventSimResult"]


def _latency_stats(latencies: np.ndarray) -> Tuple[float, float, float, float]:
    """``(mean, p50, p95, p99)`` of a latency sample (``nan`` when empty)."""
    if not latencies.size:
        nan = float("nan")
        return nan, nan, nan, nan
    p50, p95, p99 = np.percentile(latencies, [50, 95, 99])
    return float(latencies.mean()), float(p50), float(p95), float(p99)


@dataclass(frozen=True)
class EventSimResult:
    """Outcome of one event-driven run.

    Attributes
    ----------
    duration:
        Time span covered by the arrivals (seconds).
    frontend_hits, backend_queries:
        Requests absorbed by the cache vs sent to nodes.
    served, dropped:
        Per-node outcome counts.
    arrival_loads:
        Per-node *offered* rates (arrivals/duration) — comparable to the
        Monte-Carlo engine's load vectors.
    normalized_max:
        Max offered node rate over ``R/n`` — the attack gain realised.
    drop_rate:
        Dropped back-end requests / back-end requests.
    latency_mean, latency_p50, latency_p95, latency_p99:
        Back-end response-time statistics (``nan`` when nothing was
        served).
    cache_hit_rate:
        Front-end hit fraction over the run.
    unavailable, stale_hits:
        Fault-injection outcomes (always 0 without ``chaos``): requests
        whose every replica was down when retries ran out, and the
        subset the front end answered stale.
    retries, failovers:
        Redispatch attempts scheduled by the retry policy, and the ones
        that landed on a surviving replica.
    crash_lost:
        Requests lost from node queues at crash instants (a subset of
        ``dropped``).
    failure_events:
        Schedule events applied during the run (0 without ``chaos``).
    """

    duration: float
    frontend_hits: int
    backend_queries: int
    served: np.ndarray
    dropped: np.ndarray
    arrival_loads: LoadVector
    normalized_max: float
    drop_rate: float
    latency_mean: float
    latency_p50: float
    latency_p95: float
    latency_p99: float
    cache_hit_rate: float
    unavailable: int = 0
    stale_hits: int = 0
    retries: int = 0
    failovers: int = 0
    crash_lost: int = 0
    failure_events: int = 0

    @property
    def total_rate(self) -> float:
        """The offered rate ``R`` that ``normalized_max`` is relative to."""
        return self.arrival_loads.total_rate

    @property
    def n_nodes(self) -> int:
        """Number of back-end nodes."""
        return self.arrival_loads.n_nodes

    def describe(self) -> str:
        """Human-readable summary block."""
        lines = [
            f"duration {self.duration:.3f}s, cache hit rate {self.cache_hit_rate:.3f}",
            f"back-end queries {self.backend_queries}, drop rate {self.drop_rate:.4f}",
            f"normalized max offered load {self.normalized_max:.3f}",
            (
                f"latency mean {self.latency_mean*1e3:.2f}ms, "
                f"p50 {self.latency_p50*1e3:.2f}ms, "
                f"p95 {self.latency_p95*1e3:.2f}ms, "
                f"p99 {self.latency_p99*1e3:.2f}ms"
            ),
        ]
        if self.failure_events:
            lines.append(
                f"chaos: {self.failure_events} failure events, "
                f"{self.retries} retries ({self.failovers} failovers), "
                f"{self.unavailable} unavailable "
                f"({self.stale_hits} served stale), "
                f"{self.crash_lost} lost to crashes"
            )
        return "\n".join(lines)


class EventDrivenSimulator:
    """Replay a query stream through cache -> cluster -> node queues.

    Parameters
    ----------
    params:
        System parameters; ``params.node_capacity`` (or
        ``node_capacity``) sets each node's service rate.  The paper's
        capacity story needs one: default is ``4 R / n`` — 4x headroom
        over a perfectly even split.
    distribution:
        The access pattern to replay.
    cache:
        Front-end policy; defaults to the paper's perfect cache pinned
        to the distribution's true top-``c``.
    partitioner:
        Key -> replica-group mapping of the back end; defaults to a
        :class:`~repro.cluster.partitioner.RandomTablePartitioner` with
        a private seed.
    routing:
        How a replica is picked per request: ``"pin"`` (each key is
        pinned to the group member with fewest pinned keys at first
        sight — the theory model) or ``"random"`` (uniform per query).
    queue_limit, service:
        Per-node FIFO: the most requests waiting behind the one in
        service (arrivals beyond it are dropped), and the service-time
        model — ``"deterministic"`` (exactly ``1/capacity``, M/D/1) or
        ``"exponential"`` (M/M/1).
    seed:
        Root seed for arrivals, routing and the partitioning secret.
    chaos:
        Optional :class:`repro.chaos.ChaosConfig`.  When set, each run
        replays a failure schedule (explicit, or synthesised per trial
        from the ``(seed, trial)`` stream): crashed nodes lose their
        queues and reject traffic, the front end fails over across
        surviving replicas under the config's
        :class:`~repro.chaos.RetryPolicy`, and requests with no
        surviving replica are counted unavailable (optionally served
        stale).  ``None`` keeps the run byte-identical to the pre-chaos
        engine.

    context:
        The :class:`repro.obs.RunContext` each :meth:`run` reports
        through.  ``metrics`` gets deterministic counters (per-node
        forwarded / served / shed, cache hits/misses per policy, event
        counts) and simulated latency histograms; ``spans`` the
        wall-clock phases of the kernel, as this tree of span paths::

            workload-gen                key stream and arrival times
            trace-sample                only with a flight recorder
            event-loop
              kernel-resolve            node state replay, miss masks
                kernel-cache            front-end cache pass
                kernel-route            routing, failover, grouping by node
              kernel-queues             service draws, latencies
                kernel-drain            busy-period pass over all nodes
                kernel-drain-scalar     only when a node falls back
              kernel-monitor            only with a monitor attached
              kernel-trace              only with a flight recorder
            report                      metrics, monitor and trace finalize

        ``monitor`` every request on the simulated clock
        (``begin_run`` -> ``observe`` once per run with its
        :class:`~repro.obs.columns.TrialColumns` -> ``finalize``:
        sliding-window telemetry, the streaming gain
        estimate, alerts); ``trace`` a causal record per hash-sampled
        request (key, prefix bucket, client, replica group, node,
        cache-tree path, queue wait, service time, chaos annotations)
        plus streaming attack attribution.  No instrument draws from
        the engine RNG streams, so the default null context and any
        instrumented one produce bit-identical results.  ``workers`` is
        unused (a single run is one process).

    Every run is replayed by the batched kernel
    (:mod:`repro.sim.kernel`), whose docstring states the exact-replay
    rules it shares with the per-event reference scheduler.
    """

    def __init__(
        self,
        params: SystemParameters,
        distribution: KeyDistribution,
        cache: Optional[Cache] = None,
        partitioner: Optional[Partitioner] = None,
        routing: str = "pin",
        queue_limit: int = 64,
        service: str = "deterministic",
        node_capacity: Optional[float] = None,
        seed: Optional[int] = None,
        chaos: Optional[ChaosConfig] = None,
        context: RunContext = NULL_CONTEXT,
    ) -> None:
        if distribution.m != params.m:
            raise ConfigurationError(
                f"distribution covers {distribution.m} keys, system serves {params.m}"
            )
        if routing not in ("pin", "random"):
            raise ConfigurationError(
                f"unknown routing {routing!r}; expected 'pin' or 'random'"
            )
        if service not in ("deterministic", "exponential"):
            raise ConfigurationError(
                f"service must be 'deterministic' or 'exponential', got {service!r}"
            )
        if queue_limit < 0:
            raise ConfigurationError(
                f"queue_limit must be non-negative, got {queue_limit}"
            )
        if params.rate <= 0:
            raise ConfigurationError("event-driven simulation needs a positive rate")
        self._params = params
        self._distribution = distribution
        self._routing = routing
        self._factory = RngFactory(seed)
        if cache is None:
            cache = PerfectCache.from_distribution(
                distribution.probabilities(), params.c
            )
        self._cache = cache
        if partitioner is None:
            partitioner = RandomTablePartitioner(
                params.n, params.d, params.m,
                seed=None if seed is None else seed + 1,
            )
        if partitioner.n != params.n or partitioner.d != params.d:
            raise ConfigurationError(
                f"partitioner built for n={partitioner.n}, d={partitioner.d}; "
                f"params ask for n={params.n}, d={params.d}"
            )
        self._partitioner = partitioner
        capacity = node_capacity
        if capacity is None:
            capacity = params.node_capacity
        if capacity is None:
            capacity = 4.0 * params.rate / params.n
        if capacity <= 0:
            raise ConfigurationError(f"node capacity must be positive, got {capacity}")
        self._capacity = capacity
        self._queue_limit = queue_limit
        self._service = service
        # Pinned node per key, -1 while unpinned (pin routing only).
        self._pins = np.full(params.m, -1, dtype=np.min_scalar_type(-params.n))
        self._pin_counts = np.zeros(params.n, dtype=np.int64)
        self._context = context
        if chaos is not None and not isinstance(chaos, ChaosConfig):
            raise ConfigurationError(
                f"chaos must be a ChaosConfig or None, got {type(chaos).__name__}"
            )
        self._chaos = chaos

    @property
    def cache(self) -> Cache:
        """The front-end cache instance (inspect stats after a run)."""
        return self._cache

    def _publish_run_metrics(
        self,
        n_queries: int,
        frontend_hits: int,
        backend: int,
        node_arrivals: np.ndarray,
        served: np.ndarray,
        dropped: np.ndarray,
        latencies: np.ndarray,
    ) -> None:
        """Flush one run's deterministic counters into the registry.

        Everything recorded here derives from simulated state (event
        counts and simulated clock latencies), so the values are
        identical regardless of wall-clock, host or worker count.
        """
        metrics = self._context.metrics
        metrics.counter("requests_total").inc(n_queries)
        metrics.counter("frontend_hits_total").inc(frontend_hits)
        metrics.counter("backend_queries_total").inc(backend)
        self._cache.publish_metrics(metrics)
        for node in range(self._params.n):
            label = str(node)
            if node_arrivals[node]:
                metrics.counter("node_forwarded_total", node=label).inc(
                    int(node_arrivals[node])
                )
            if served[node]:
                metrics.counter("node_served_total", node=label).inc(int(served[node]))
            if dropped[node]:
                metrics.counter("node_shed_total", node=label).inc(int(dropped[node]))
        if latencies.size:
            metrics.histogram("backend_latency_seconds").observe_many(latencies)

    def run(self, n_queries: int, trial: int = 0) -> EventSimResult:
        """Replay ``n_queries`` Poisson arrivals; returns the result.

        ``trial`` selects an independent randomness stream so repeated
        runs of the same simulator are statistically independent.  The
        replay is the batched kernel, :func:`repro.sim.kernel.run_fast`.
        """
        if n_queries < 1:
            raise SimulationError(f"need at least one query, got {n_queries}")
        return _kernel.run_fast(self, n_queries, trial)
