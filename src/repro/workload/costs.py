"""Non-uniform query costs — relaxing the paper's assumption 4.

The paper assumes every query costs the back end the same (assumption
4) and points at Fan et al. [18] for handling mixes of reads, writes and
updates with different costs.  The standard reduction: measure load in
*cost units* instead of queries.  Every theorem goes through with ``R``
replaced by the offered *cost rate*, because the balls-into-bins
argument never used the fact that ball weights were equal rates (see
:class:`repro.cluster.selection.LeastLoadedKeyPinning`, which already
places by accumulated weight).

:class:`OperationMix` exposes the adversary-side consequence:
:meth:`OperationMix.worst_case_inflation` — an attacker who can choose
expensive operations multiplies their effective rate by at most
``max_cost / mean_cost`` of the benign mix, which is how an operator
should derate capacity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Tuple, Union

import numpy as np

from ..exceptions import ConfigurationError
from ..rng import as_generator

__all__ = ["OperationMix"]

RngLike = Union[None, int, np.random.Generator]


@dataclass(frozen=True)
class OperationMix:
    """A mix of operation classes with per-class back-end costs.

    Parameters
    ----------
    classes:
        Mapping of class name -> (fraction of queries, cost units per
        query).  Fractions must sum to 1; costs must be positive.

    Examples
    --------
    >>> mix = OperationMix({"read": (0.9, 1.0), "write": (0.1, 5.0)})
    >>> round(mix.mean_cost, 2)
    1.4
    """

    classes: Mapping[str, Tuple[float, float]]

    def __post_init__(self) -> None:
        if not self.classes:
            raise ConfigurationError("need at least one operation class")
        total = 0.0
        for name, (fraction, cost) in self.classes.items():
            if fraction < 0:
                raise ConfigurationError(f"{name}: fraction must be non-negative")
            if cost <= 0:
                raise ConfigurationError(f"{name}: cost must be positive")
            total += fraction
        if not np.isclose(total, 1.0, atol=1e-9):
            raise ConfigurationError(f"fractions must sum to 1, got {total}")
        object.__setattr__(self, "classes", dict(self.classes))

    @property
    def mean_cost(self) -> float:
        """Expected cost units per query under the declared mix."""
        return sum(f * c for f, c in self.classes.values())

    @property
    def max_cost(self) -> float:
        """Cost of the most expensive class."""
        return max(c for _, c in self.classes.values())

    def worst_case_inflation(self) -> float:
        """Factor by which an adversary choosing only the most expensive
        operation inflates their effective rate over the benign mix.

        Capacity planned against rate ``R`` of the benign mix must be
        derated by this factor when clients pick their own operations.
        """
        return self.max_cost / self.mean_cost

    def sample_costs(self, size: int, rng: RngLike = None) -> np.ndarray:
        """Draw per-query costs i.i.d. from the mix."""
        if size < 0:
            raise ConfigurationError(f"size must be non-negative, got {size}")
        gen = as_generator(rng, "operation-mix")
        names = list(self.classes)
        fractions = np.array([self.classes[n][0] for n in names])
        costs = np.array([self.classes[n][1] for n in names])
        picks = gen.choice(len(names), size=size, p=fractions)
        return costs[picks]
