"""Cross-engine validation: placement model vs queueing model.

The Monte-Carlo engine is the paper's model; the event-driven engine is
the closest thing this repository has to ground truth.  Agreement
between them on the normalized max load is the repository's internal
consistency check, packaged here as a library call so tests, benches
and users run the identical procedure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core.notation import SystemParameters
from ..exceptions import ConfigurationError
from ..obs.context import NULL_CONTEXT, RunContext
from ..workload.adversarial import AdversarialDistribution
from .analytic import simulate_uniform_attack
from .batch import run_event_campaign

__all__ = ["CrossValidation", "cross_validate"]


@dataclass(frozen=True)
class CrossValidation:
    """Agreement report between the two engines at one attack width."""

    x: int
    analytic_mean: float
    eventsim_mean: float
    eventsim_std: float
    drop_rate: float

    @property
    def relative_gap(self) -> float:
        """``|analytic - eventsim| / analytic`` (0 when both are 0)."""
        if self.analytic_mean == 0:
            return 0.0 if self.eventsim_mean == 0 else float("inf")
        return abs(self.analytic_mean - self.eventsim_mean) / self.analytic_mean

    def agrees(self, tolerance: float = 0.25) -> bool:
        """Whether the engines agree within ``tolerance`` relative gap."""
        return self.relative_gap <= tolerance

    def describe(self) -> str:
        """One-line summary."""
        return (
            f"x={self.x}: analytic {self.analytic_mean:.3f} vs "
            f"event-driven {self.eventsim_mean:.3f} "
            f"(gap {100 * self.relative_gap:.1f}%, drops {self.drop_rate:.4f})"
        )


def cross_validate(
    params: SystemParameters,
    x: int,
    analytic_trials: int = 20,
    event_trials: int = 4,
    queries_per_trial: int = 40_000,
    seed: Optional[int] = None,
    context: RunContext = NULL_CONTEXT,
) -> CrossValidation:
    """Run the x-key uniform attack through both engines and compare.

    Keeps the event-engine inputs modest by default; raise
    ``queries_per_trial`` when per-node rates need tighter confidence
    (roughly ``20 * rate / n`` queries per node is a good floor).
    ``context.workers`` parallelises the trials of both engines
    (``0`` = one process per CPU) without changing any result.
    """
    if not 1 <= x <= params.m:
        raise ConfigurationError(f"need 1 <= x <= m={params.m}, got x={x}")
    analytic = simulate_uniform_attack(
        params, x, trials=analytic_trials, seed=seed, context=context
    ).mean
    campaign = run_event_campaign(
        params,
        AdversarialDistribution(params.m, x),
        trials=event_trials,
        n_queries=queries_per_trial,
        seed=seed,
        context=context,
    )
    gains = campaign.load_report.normalized_max_per_trial
    drops = [result.drop_rate for result in campaign.results]
    return CrossValidation(
        x=x,
        analytic_mean=float(analytic),
        eventsim_mean=float(np.mean(gains)),
        eventsim_std=float(np.std(gains)),
        drop_rate=float(np.mean(drops)),
    )
