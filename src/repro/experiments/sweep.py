"""One sweep point of Figs. 3 and 5: the x-key attack as its own campaign.

Section IV repeats every sweep point independently.  Every adversarial
campaign draws from the same ``distribution-adversarial`` RNG stream, so
points run at one root seed would share their trial generators; each
point's campaign therefore runs at a seed derived from
``(root seed, c, x)``.  The report records that derived seed, so
``simulate_distribution(params, AdversarialDistribution(m, x),
seed=report.metadata["seed"])`` reruns the point exactly.
"""

from __future__ import annotations

import numpy as np

from ..core.notation import SystemParameters
from ..obs.context import RunContext
from ..sim.analytic import MonteCarloSimulator
from ..types import LoadReport
from ..workload.adversarial import AdversarialDistribution

__all__ = ["point_seed", "attack_point"]


def point_seed(root: int, c: int, x: int) -> int:
    """The campaign seed of sweep point ``(c, x)`` under root seed ``root``."""
    return int(np.random.SeedSequence([root, c, x]).generate_state(1, np.uint64)[0])


def attack_point(
    params: SystemParameters,
    x: int,
    root: int,
    trials: int,
    selection: str,
    chaos,
    context: RunContext,
) -> LoadReport:
    """Run the uniform ``x``-key attack on ``params`` at its point's seed."""
    sim = MonteCarloSimulator(
        params, trials=trials, seed=point_seed(root, params.c, x),
        selection=selection, chaos=chaos, context=context,
    )
    return sim.distribution_attack(AdversarialDistribution(params.m, x))
