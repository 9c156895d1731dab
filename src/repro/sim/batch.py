"""Multi-trial campaigns for the event-driven engine.

An event campaign is one trial task over the campaign runner both
engines share, :func:`repro.sim.runner.run_trials`.  Each trial replays
an independent arrival stream through a *fresh* cache and the same
(secretly seeded) partitioner.  :class:`EventCampaign` is the thin view
over the results that adds the operational metrics the paper's analytic
model cannot produce: drop rates, latency tails and hit rates, alongside
the usual normalized-max-load report.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, Tuple

import numpy as np

from ..core.notation import SystemParameters
from ..obs.context import NULL_CONTEXT, RunContext
from ..types import LoadReport
from ..workload.distributions import KeyDistribution
from .eventsim import EventDrivenSimulator, EventSimResult
from .parallel import resolve_seed
from .runner import run_trials

__all__ = ["EventCampaign", "run_event_campaign"]


@dataclass(frozen=True)
class EventCampaign:
    """Aggregate of repeated event-driven runs of one configuration.

    Attributes
    ----------
    load_report:
        Normalized-max-load per trial, shaped like the Monte-Carlo
        engine's output so the two are directly comparable.
    results:
        The raw per-trial results (for anything not pre-aggregated).
    """

    load_report: LoadReport
    results: Tuple[EventSimResult, ...]

    @property
    def trials(self) -> int:
        """Number of runs aggregated."""
        return len(self.results)

    @property
    def mean_drop_rate(self) -> float:
        """Average back-end drop rate across trials."""
        return float(np.mean([r.drop_rate for r in self.results]))

    @property
    def worst_drop_rate(self) -> float:
        """Worst single-trial drop rate."""
        return float(np.max([r.drop_rate for r in self.results]))

    @property
    def mean_hit_rate(self) -> float:
        """Average front-end hit rate across trials."""
        return float(np.mean([r.cache_hit_rate for r in self.results]))

    @property
    def worst_p99_latency(self) -> float:
        """Worst per-trial p99 back-end latency (seconds; nan-safe)."""
        values = [r.latency_p99 for r in self.results]
        finite = [v for v in values if v == v]
        return float(np.max(finite)) if finite else float("nan")

    @property
    def total_failure_events(self) -> int:
        """Fault-injection events applied across all trials (0 = no chaos)."""
        return int(sum(r.failure_events for r in self.results))

    @property
    def total_unavailable(self) -> int:
        """Requests across all trials whose every replica was down."""
        return int(sum(r.unavailable for r in self.results))


def _event_campaign_trial(
    gen,
    trial: int,
    params: SystemParameters,
    distribution: KeyDistribution,
    n_queries: int,
    seed: Optional[int],
    cache_factory: Optional[Callable[[], object]],
    simulator_kwargs: dict,
    context: RunContext,
) -> EventSimResult:
    """One campaign trial (top-level, so process pools can pickle it).

    The event engine derives its randomness from ``(seed, trial)``
    internally — a fresh simulator and cache per trial, exactly like the
    serial loop — so the ``gen`` that :func:`~repro.sim.parallel.map_trials`
    provides goes unused and the campaign stays bit-identical across
    worker counts.

    The distribution is deep-copied per trial for the same reason: a
    scan distribution's cursor would otherwise advance across trials in
    whatever order the fan-out happens to run them (all of them
    serially, a worker's share when parallel), making results depend on
    the worker count.  Every trial therefore starts from the caller's
    initial state.  The partitioner is shared, not copied: the event
    engine only reads its size, replication and replica groups.

    ``context`` is the per-trial :class:`repro.obs.RunContext` that
    :func:`~repro.sim.parallel.map_trials` provides; the simulator
    publishes into it and ``map_trials`` merges it in trial order.
    """
    del gen
    distribution = copy.deepcopy(distribution)
    cache = cache_factory() if cache_factory is not None else None
    sim = EventDrivenSimulator(
        params, distribution, cache=cache, seed=seed, context=context,
        **simulator_kwargs
    )
    return sim.run(n_queries, trial=trial)


def run_event_campaign(
    params: SystemParameters,
    distribution: KeyDistribution,
    trials: int = 5,
    n_queries: int = 20_000,
    seed: Optional[int] = None,
    cache_factory: Optional[Callable[[], object]] = None,
    context: RunContext = NULL_CONTEXT,
    **simulator_kwargs,
) -> EventCampaign:
    """Run ``trials`` independent event-driven replays and aggregate.

    Parameters
    ----------
    params, distribution:
        The system and access pattern (see
        :class:`~repro.sim.eventsim.EventDrivenSimulator`).
    trials, n_queries:
        Campaign size; each trial draws an independent arrival stream.
    seed:
        Root seed of every trial's simulator (``None`` draws fresh
        entropy once; the resolved value is recorded in the report
        metadata for exact reruns).
    cache_factory:
        Builds a *fresh* cache per trial (stateful policies must not
        leak warmth between trials).  ``None`` uses the per-simulator
        default (the perfect cache).  Must be picklable when
        ``context.workers > 1``.
    context:
        The campaign's :class:`repro.obs.RunContext`.
        ``context.workers`` fans trials out (``0`` = one per CPU,
        default ``1`` = serial); the results are identical for every
        value — see :mod:`repro.sim.parallel`.
        Handed to :func:`~repro.sim.runner.run_trials`: its spans and
        campaign metrics (series ``event-campaign``) are the runner's,
        and each trial records into a per-trial context merged back in
        trial order.  The monitor gets the campaign's single manifest
        record up front.
    simulator_kwargs:
        Forwarded to every :class:`EventDrivenSimulator` (routing,
        node_capacity, queue_limit, service, partitioner...).
    """
    # Resolved once, so every trial shares one partitioner and the report
    # records the seed that reruns the campaign.
    seed = resolve_seed(seed)
    if context.monitor.enabled:
        context.monitor.emit_manifest(
            engine="event-driven",
            trials=trials,
            n_queries=n_queries,
            seed=seed,
            distribution=distribution.name,
            n=params.n,
            rate=params.rate,
        )
    task = partial(
        _event_campaign_trial, params=params, distribution=distribution,
        n_queries=n_queries, seed=seed, cache_factory=cache_factory,
        simulator_kwargs=simulator_kwargs,
    )
    report, results = run_trials(
        task,
        trials,
        seed=seed,
        label="event-campaign",
        metadata={
            "engine": "event-driven",
            "n_queries": n_queries,
            "distribution": distribution.name,
        },
        context=context,
    )
    return EventCampaign(load_report=report, results=tuple(results))
