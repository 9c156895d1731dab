"""Balls-into-bins allocation: the probabilistic substrate of the bound.

The paper models uncached keys landing on back-end nodes as ``M`` balls
thrown into ``N`` bins with the *power of d choices* (each ball goes to
the least loaded of ``d`` random bins).  This subpackage provides:

- :mod:`repro.ballsbins.allocation` — exact simulators of the one-choice
  and d-choice processes (vectorised where the process allows),
- :mod:`repro.ballsbins.occupancy` — occupancy statistics and the
  empirical calibration of the Theta(1) constant ``k'``.
"""

from .allocation import d_choice_allocate, one_choice_allocate
from .occupancy import (
    OccupancyStats,
    calibrate_k_prime,
    max_occupancy_trials,
    occupancy_stats,
)

__all__ = [
    "one_choice_allocate",
    "d_choice_allocate",
    "OccupancyStats",
    "occupancy_stats",
    "max_occupancy_trials",
    "calibrate_k_prime",
]
