"""The one campaign runner of both engines: seeded trials, one report.

What only one engine needs (the Monte-Carlo monitor windows, the event
campaign's manifest) stays with that engine's caller.
"""

from __future__ import annotations

from typing import Any, Callable, List, Mapping, Optional, Tuple

import numpy as np

from ..exceptions import SimulationError
from ..obs.context import NULL_CONTEXT, RunContext
from ..types import LoadReport
from .parallel import map_trials, resolve_seed

__all__ = ["run_trials", "campaign_series"]


def run_trials(
    task: Callable[..., Any],
    trials: int,
    *,
    seed: Optional[int] = None,
    label: str = "trial",
    metadata: Optional[Mapping[str, object]] = None,
    context: RunContext = NULL_CONTEXT,
) -> Tuple[LoadReport, List[Any]]:
    """Run ``task`` under ``trials`` independent RNG streams.

    Returns the campaign's :class:`~repro.types.LoadReport` and the
    per-trial outcomes in trial order.

    Parameters
    ----------
    task:
        Called as ``task(gen, trial, context=trial_context)`` (see
        :func:`~repro.sim.parallel.map_trials`); returns one outcome with
        ``normalized_max``, ``total_rate`` and ``n_nodes`` (a
        :class:`~repro.types.LoadVector` or an
        :class:`~repro.sim.eventsim.EventSimResult`).
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
        (``trials``) and the aggregation (``report``), in this process
        only.  Its ``metrics`` get the campaign's trial and ball
        counters and its per-trial normalized-max histogram under the
        :func:`campaign_series` name, recorded in the parent over the
        trial-ordered results.
    """
    if trials < 1:
        raise SimulationError(f"need at least one trial, got {trials}")
    seed = resolve_seed(seed)
    spans = context.spans
    with spans.span("trials"):
        outcomes = map_trials(task, trials, seed=seed, label=label, context=context)
    with spans.span("report"):
        # Results are ordered by trial index, so the configuration check is
        # anchored to trial 0 — never to whichever trial finished first.
        reference = outcomes[0]
        normalized = np.empty(trials, dtype=float)
        for t, outcome in enumerate(outcomes):
            if outcome.total_rate != reference.total_rate or outcome.n_nodes != reference.n_nodes:
                raise SimulationError(
                    f"trial {t} changed total_rate or n_nodes relative to trial 0; "
                    "each campaign must hold the configuration fixed"
                )
            normalized[t] = outcome.normalized_max
        meta = dict(metadata or {})
        meta.setdefault("seed", seed)
        registry = context.metrics
        if registry.enabled:
            # Recorded over the trial-ordered results, so the worker count
            # cannot move a value.  An attack campaign (``x`` keys, ``c``
            # of them cached) places ``max(x - c, 0)`` balls per trial.
            series = campaign_series(label, meta)
            registry.counter("campaign_trials_total", campaign=series).inc(trials)
            x, c = _as_int(meta.get("x")), _as_int(meta.get("c"))
            if x is not None and c is not None:
                registry.counter("campaign_balls_total", campaign=series).inc(
                    trials * max(x - c, 0)
                )
            registry.histogram("trial_normalized_max", campaign=series).observe_many(
                normalized
            )
    report = LoadReport(
        normalized_max_per_trial=normalized,
        total_rate=float(reference.total_rate),
        n_nodes=int(reference.n_nodes),
        metadata=meta,
    )
    return report, outcomes


def campaign_series(label: str, metadata: Mapping[str, object]) -> str:
    """A campaign's metric and monitor series: ``<label>-n<n>-c<c>-x<x>``.

    Sweeps share one RNG label across their points, so the system size,
    cache size and attack width name each campaign; each part is present
    only when the metadata carries that key (``label`` alone when it
    carries none).
    """
    values = (_as_int(metadata.get(key)) for key in "ncx")
    parts = [f"{key}{value}" for key, value in zip("ncx", values) if value is not None]
    return "-".join([label, *parts])


def _as_int(value) -> Optional[int]:
    return int(value) if isinstance(value, (int, np.integer)) else None

