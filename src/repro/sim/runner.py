"""Multi-trial orchestration: independent seeds, aggregated results."""

from __future__ import annotations

from typing import Callable, Mapping, Optional

import numpy as np

from ..exceptions import SimulationError
from ..obs.context import NULL_CONTEXT, RunContext
from ..types import LoadReport, LoadVector
from .parallel import ParallelExecutor, resolve_seed

__all__ = ["run_trials"]


def run_trials(
    trial_fn: Callable[[np.random.Generator], LoadVector],
    trials: int,
    seed: Optional[int] = None,
    label: str = "trial",
    metadata: Optional[Mapping[str, object]] = None,
    context: RunContext = NULL_CONTEXT,
) -> LoadReport:
    """Run ``trial_fn`` under ``trials`` independent RNG streams.

    Parameters
    ----------
    trial_fn:
        Callable producing one :class:`~repro.types.LoadVector` from a
        dedicated generator.  It must consume *only* that generator for
        randomness, so trials stay independent and reproducible.  With
        ``workers > 1`` it must also be picklable (a top-level function,
        bound method or ``functools.partial`` — not a lambda).
    trials:
        Number of repetitions.
    seed:
        Root seed (``None`` draws fresh entropy once; the resolved value
        is recorded in the report metadata for exact reruns).
    label:
        RNG stream namespace; two campaigns with different labels and
        the same seed are independent.
    metadata:
        Attached to the returned report (plus a ``seed`` key).
    context:
        The run's :class:`repro.obs.RunContext`.  ``context.workers``
        fans trials out (``1`` serial, ``0`` one per CPU); results are
        bit-identical for every value.  Its ``spans`` time the fan-out
        and the aggregation (this process only).  Its ``metrics`` get
        the campaign's trial and ball counters and its per-trial
        normalized-max histogram, and each trial's load vector becomes
        one trial-clock window record of its ``monitor``
        (:meth:`~repro.obs.LoadMonitor.record_trial`) evaluated against
        the alert rules, with the Theorem-2 bound refreshed per call
        when the metadata carries an ``x`` (the attack sweeps do).  Both
        name their series ``<label>-n<n>-c<c>-x<x>``, each part present
        only when the metadata carries that key (``label`` alone when it
        carries none), and record in the parent over the trial-ordered
        results, so they are identical for every worker count.
    """
    if trials < 1:
        raise SimulationError(f"need at least one trial, got {trials}")
    seed = resolve_seed(seed)
    spans, monitor = context.spans, context.monitor
    with spans.span("trials"):
        with ParallelExecutor(workers=context.workers) as executor:
            vectors = executor.map_trials(trial_fn, trials, seed=seed, label=label)
    with spans.span("report"):
        # Results are ordered by trial index, so the configuration check is
        # anchored to trial 0 — never to whichever trial finished first.
        reference = vectors[0]
        normalized = np.empty(trials, dtype=float)
        for t, vector in enumerate(vectors):
            if vector.total_rate != reference.total_rate or vector.n_nodes != reference.n_nodes:
                raise SimulationError(
                    f"trial {t} changed total_rate or n_nodes relative to trial 0; "
                    "each campaign must hold the configuration fixed"
                )
            normalized[t] = vector.normalized_max
        meta = dict(metadata or {})
        meta.setdefault("seed", seed)
        n, c, x, d = (_as_int(meta.get(key)) for key in ("n", "c", "x", "d"))
        # Sweeps share one RNG label across their points, so the system
        # size, cache size and attack width name each campaign's metric
        # and monitor series.
        parts = [f"{key}{value}" for key, value in zip("ncx", (n, c, x)) if value is not None]
        series = "-".join([label, *parts])
        balls = None if x is None or c is None else max(x - c, 0)
        if context.metrics.enabled:
            _record_campaign_metrics(context.metrics, series, normalized, balls)
        if monitor.enabled:
            eff = meta.get("effective_d")
            effective_d = float(eff) if isinstance(eff, (int, float, np.floating, np.integer)) else None
            for t, vector in enumerate(vectors):
                monitor.record_trial(
                    t, vector, campaign=series, x=x, c=c, d=d,
                    effective_d=effective_d,
                )
    return LoadReport(
        normalized_max_per_trial=normalized,
        total_rate=float(reference.total_rate),
        n_nodes=int(reference.n_nodes),
        metadata=meta,
    )


def _as_int(value) -> Optional[int]:
    return int(value) if isinstance(value, (int, np.integer)) else None


def _record_campaign_metrics(
    registry,
    series: str,
    normalized: np.ndarray,
    balls_per_trial: Optional[int] = None,
) -> None:
    """Record one campaign's deterministic aggregates under ``series``.

    Runs in the parent over the trial-ordered results, so worker count
    cannot influence any value.  When the campaign knows its attack
    shape (``x`` attacked keys, ``c`` of them cached), each trial places
    ``balls_per_trial = max(x - c, 0)`` balls, and the campaign's total
    lands in a counter so a bench can report balls/sec without
    re-deriving the workload.
    """
    trials = len(normalized)
    registry.counter("campaign_trials_total", campaign=series).inc(trials)
    if balls_per_trial is not None:
        registry.counter("campaign_balls_total", campaign=series).inc(
            trials * balls_per_trial
        )
    registry.histogram("trial_normalized_max", campaign=series).observe_many(
        normalized
    )
