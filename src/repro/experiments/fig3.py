"""Figure 3: normalized max workload vs number of queried keys.

Two panels on the paper's 1000-node, d=3 system:

- (a) small cache, ``c = 200``: the measured normalized max load
  *decreases* with ``x``, exceeds 1.0 near ``x = c + 1`` (effective
  attacks exist), and stays below the Eq. (10) bound curve (k = 1.2);
- (b) large cache, ``c = 2000`` (above the critical point 1201): the
  curve *increases* with ``x`` but never reaches 1.0 — the adversary's
  best move is to query everything and still lose.

Each sweep point reports the paper's statistic: the max over ``trials``
runs of the per-run maximum node load, normalized by ``R/n``.  Every
point is its own campaign, at a seed derived from the root seed
(:mod:`repro.experiments.sweep`).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..analysis.tightness import bound_tightness
from ..core.bounds import DEFAULT_CALIBRATED_K_PRIME, normalized_max_load_bound
from ..obs.context import NULL_CONTEXT, RunContext
from ..sim.parallel import resolve_seed
from .params import PAPER, PaperParams
from .report import ExperimentResult
from .sweep import attack_point

__all__ = ["run_fig3", "run_fig3a", "run_fig3b", "default_x_grid"]


def default_x_grid(c: int, m: int, points: int = 18) -> np.ndarray:
    """Log-spaced sweep of queried-key counts from just past the cache
    to the full key space (always includes ``c + 1`` and ``m``)."""
    lo, hi = c + 1, m
    grid = np.unique(
        np.clip(np.round(np.geomspace(lo, hi, num=points)).astype(int), lo, hi)
    )
    return grid


def run_fig3(
    cache_size: int,
    paper: PaperParams = PAPER,
    x_values: Optional[Sequence[int]] = None,
    trials: Optional[int] = None,
    seed: Optional[int] = None,
    selection: str = "least-loaded",
    name: str = "fig3",
    chaos=None,
    context: RunContext = NULL_CONTEXT,
) -> ExperimentResult:
    """Run one Figure-3 panel at the given cache size.

    Returns columns: ``x``, ``sim_max`` (max over trials), ``sim_mean``,
    ``bound_paper`` (Eq. (10) with the paper's folded k = 1.2) and
    ``bound_calib`` (same equation with the substrate-calibrated
    ``k = log log n / log d + k'``, which validly upper-bounds the
    simulation — see EXPERIMENTS.md on the constant discrepancy).
    ``chaos`` (a :class:`repro.chaos.ChaosConfig`) degrades every trial
    at the failure process's steady state; the bound columns stay the
    healthy-system curves, so the gap shows what failures cost.
    ``context`` (a :class:`repro.obs.RunContext`) carries the worker
    count and the instruments; the panel runs inside a span named
    ``name``.
    """
    params = paper.system(c=cache_size)
    trials = paper.trials if trials is None else trials
    if x_values is None:
        x_values = default_x_grid(cache_size, paper.m)
    root = resolve_seed(seed)
    xs, sim_max, sim_mean, bounds_paper, bounds_calib = [], [], [], [], []
    with context.spans.span(name):
        for x in x_values:
            report = attack_point(
                params, int(x), root, trials, selection, chaos, context
            )
            xs.append(int(x))
            sim_max.append(report.worst_case)
            sim_mean.append(report.mean)
            bounds_paper.append(normalized_max_load_bound(params, int(x), k=paper.k))
            bounds_calib.append(
                normalized_max_load_bound(
                    params, int(x), k_prime=DEFAULT_CALIBRATED_K_PRIME
                )
            )
    tightness = bound_tightness(sim_max, bounds_calib)
    trend = "decreasing" if sim_max[0] >= sim_max[-1] else "increasing"
    peak = max(sim_max)
    result = ExperimentResult(
        name=name,
        description=(
            f"normalized max workload vs x (cache size {cache_size}); "
            f"star curve = Eq. (10) bound with k={paper.k}"
        ),
        columns={
            "x": xs,
            "sim_max": sim_max,
            "sim_mean": sim_mean,
            "bound_paper": bounds_paper,
            "bound_calib": bounds_calib,
        },
        config={
            "n": params.n,
            "m": params.m,
            "c": cache_size,
            "d": params.d,
            "trials": trials,
            "k": paper.k,
            "selection": selection,
            **({"chaos": chaos.describe()} if chaos is not None else {}),
        },
        notes=[
            f"curve is {trend} in x",
            f"peak normalized max load {peak:.3f} "
            + ("(effective attack exists)" if peak > 1.0 else "(no effective attack)"),
            "calibrated bound: " + tightness.describe(),
        ],
    )
    return result


def run_fig3a(
    paper: PaperParams = PAPER,
    trials: Optional[int] = None,
    seed: Optional[int] = None,
    x_values: Optional[Sequence[int]] = None,
    chaos=None,
    context: RunContext = NULL_CONTEXT,
) -> ExperimentResult:
    """Figure 3(a): the small-cache panel (c = 200)."""
    return run_fig3(
        paper.c_small, paper=paper, trials=trials, seed=seed,
        x_values=x_values, name="fig3a", chaos=chaos, context=context,
    )


def run_fig3b(
    paper: PaperParams = PAPER,
    trials: Optional[int] = None,
    seed: Optional[int] = None,
    x_values: Optional[Sequence[int]] = None,
    chaos=None,
    context: RunContext = NULL_CONTEXT,
) -> ExperimentResult:
    """Figure 3(b): the large-cache panel (c = 2000)."""
    return run_fig3(
        paper.c_large, paper=paper, trials=trials, seed=seed,
        x_values=x_values, name="fig3b", chaos=chaos, context=context,
    )
