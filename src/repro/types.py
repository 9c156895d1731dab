"""Shared value types used across the ``repro`` package.

These are deliberately small, immutable, numpy-friendly containers: the
heavy lifting lives in the subsystem modules, while these types define
the vocabulary the subsystems use to talk to each other.

Keys are dense integer ids ``0 .. m-1``; the most popular key is 0 by
convention (the paper lists keys in decreasing popularity order).
Back-end nodes are dense integer ids ``0 .. n-1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .exceptions import ConfigurationError

__all__ = [
    "LoadVector",
    "LoadReport",
]


@dataclass(frozen=True)
class LoadVector:
    """Per-node load (queries/second) observed in one trial.

    Wraps the raw numpy vector with the derived quantities every analysis
    in the paper needs: the maximum load, the even-split baseline ``R/n``
    and the normalized maximum (the *attack gain* numerator of
    Definition 1).
    """

    loads: np.ndarray
    total_rate: float

    def __post_init__(self) -> None:
        loads = np.asarray(self.loads, dtype=float)
        if loads.ndim != 1 or loads.size == 0:
            raise ConfigurationError("loads must be a non-empty 1-D vector")
        if np.any(loads < 0):
            raise ConfigurationError("loads must be non-negative")
        object.__setattr__(self, "loads", loads)
        if self.total_rate < 0:
            raise ConfigurationError("total_rate must be non-negative")

    @property
    def n_nodes(self) -> int:
        """Number of back-end nodes."""
        return int(self.loads.size)

    @property
    def max_load(self) -> float:
        """Load on the most loaded node, ``L_max``."""
        return float(self.loads.max())

    @property
    def backend_rate(self) -> float:
        """Aggregate rate that actually reached the back end."""
        return float(self.loads.sum())

    @property
    def even_split(self) -> float:
        """The best-case per-node load ``R/n`` used to normalize gains.

        Note the paper normalizes by the *offered* rate ``R`` spread over
        ``n`` nodes, not by the post-cache back-end rate: the cache
        absorbing traffic is part of the defense being measured.
        """
        return self.total_rate / self.n_nodes

    @property
    def normalized_max(self) -> float:
        """``L_max / (R/n)`` — the attack gain achieved in this trial."""
        if self.total_rate == 0:
            return 0.0
        return self.max_load / self.even_split

    def percentile(self, q: float) -> float:
        """Return the ``q``-th percentile of per-node load (0 <= q <= 100)."""
        return float(np.percentile(self.loads, q))


@dataclass(frozen=True)
class LoadReport:
    """Aggregate of many trials of the same configuration.

    The paper reports, for each parameter point, the max over 200 trials of
    the per-trial maximum load; we retain the whole per-trial series so
    analyses can also look at means and confidence intervals.
    """

    normalized_max_per_trial: np.ndarray
    total_rate: float
    n_nodes: int
    metadata: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        arr = np.asarray(self.normalized_max_per_trial, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ConfigurationError("need at least one trial")
        object.__setattr__(self, "normalized_max_per_trial", arr)

    @property
    def trials(self) -> int:
        """Number of independent trials aggregated."""
        return int(self.normalized_max_per_trial.size)

    @property
    def worst_case(self) -> float:
        """Max over trials of the normalized max load (paper's headline)."""
        return float(self.normalized_max_per_trial.max())

    @property
    def mean(self) -> float:
        """Mean over trials of the normalized max load."""
        return float(self.normalized_max_per_trial.mean())

    @property
    def std(self) -> float:
        """Sample standard deviation over trials (0 for a single trial)."""
        if self.trials < 2:
            return 0.0
        return float(self.normalized_max_per_trial.std(ddof=1))

    @property
    def p99(self) -> float:
        """99th percentile over trials of the normalized max load."""
        return float(np.percentile(self.normalized_max_per_trial, 99))

    def describe(self) -> str:
        """Self-describing one-liner for campaign logs.

        Includes the root seed when the producing campaign recorded one
        in the metadata (``run_trials`` always does), so any logged
        report can be rerun exactly.
        """
        seed = self.metadata.get("seed")
        seed_part = f", seed={seed}" if seed is not None else ""
        return (
            f"LoadReport({self.trials} trials, n={self.n_nodes}, "
            f"normalized max: mean {self.mean:.3f}, p99 {self.p99:.3f}, "
            f"worst {self.worst_case:.3f}{seed_part})"
        )

    def __repr__(self) -> str:
        """The :meth:`describe` summary (dataclass field dump is noise)."""
        return self.describe()

