"""Statistical validation of the randomization assumptions.

The security argument rests on two statistical properties that are easy
to break silently in an implementation (a biased hash, a lazy ring):

1. each partitioner assigns first replicas ~uniformly across nodes;
2. the adversary, lacking the secret, cannot distinguish the observable
   behaviour from uniform.

These test helpers run classical goodness-of-fit tests over the
substrate so the test suite can *prove* the assumptions hold for every
partitioner and sampler in the repository, not just assert them in
prose.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import stats

from repro.cluster.partitioner import Partitioner
from repro.exceptions import AnalysisError
from repro.workload.distributions import KeyDistribution

__all__ = [
    "GoodnessOfFit",
    "chi_square_uniform",
    "partitioner_uniformity",
    "sampler_fidelity",
]


@dataclass(frozen=True)
class GoodnessOfFit:
    """Result of a goodness-of-fit test."""

    statistic: float
    p_value: float
    dof: int
    samples: int

    def passes(self, alpha: float = 0.001) -> bool:
        """True when the uniformity hypothesis is *not* rejected.

        ``alpha`` is deliberately small: these run inside a test suite
        where a 1-in-20 false alarm rate (the usual 0.05) would flake.
        """
        return self.p_value >= alpha

    def describe(self) -> str:
        """One-line summary."""
        return (
            f"chi2={self.statistic:.1f} (dof {self.dof}, n={self.samples}): "
            f"p={self.p_value:.4f}"
        )


def chi_square_uniform(counts: Sequence[int]) -> GoodnessOfFit:
    """Chi-square test of ``counts`` against the uniform distribution."""
    counts = np.asarray(counts, dtype=float)
    if counts.ndim != 1 or counts.size < 2:
        raise AnalysisError("need at least two categories")
    total = counts.sum()
    if total <= 0:
        raise AnalysisError("need at least one observation")
    expected = total / counts.size
    if expected < 5:
        raise AnalysisError(
            f"chi-square needs >= 5 expected observations per category, got {expected:.1f}"
        )
    statistic, p_value = stats.chisquare(counts)
    return GoodnessOfFit(
        statistic=float(statistic),
        p_value=float(p_value),
        dof=int(counts.size - 1),
        samples=int(total),
    )


def partitioner_uniformity(
    partitioner: Partitioner, keys: Sequence[int], replica: int = 0
) -> GoodnessOfFit:
    """Test that the given replica slot is uniform over nodes.

    ``replica=0`` checks primary placement; each slot should be uniform
    individually under honest randomized partitioning.
    """
    if not 0 <= replica < partitioner.d:
        raise AnalysisError(
            f"replica must be in [0, d={partitioner.d}), got {replica}"
        )
    groups = partitioner.replica_groups(np.asarray(keys, dtype=np.int64))
    counts = np.bincount(groups[:, replica], minlength=partitioner.n)
    return chi_square_uniform(counts)


def sampler_fidelity(
    distribution: KeyDistribution,
    samples: int = 50_000,
    seed: int = 0,
    min_expected: float = 5.0,
) -> GoodnessOfFit:
    """Test that :meth:`~KeyDistribution.sample` matches
    :meth:`~KeyDistribution.probabilities`.

    Low-probability keys are pooled into one bucket so every chi-square
    cell meets the ``min_expected`` rule.
    """
    if samples < 1:
        raise AnalysisError(f"samples must be positive, got {samples}")
    probs = distribution.probabilities()
    keys = distribution.sample(samples, rng=seed)
    counts = np.bincount(keys, minlength=distribution.m).astype(float)
    expected = probs * samples

    big = expected >= min_expected
    if big.sum() < 1:
        raise AnalysisError("distribution too flat/small for this sample size")
    pooled_counts = list(counts[big])
    pooled_expected = list(expected[big])
    tail_expected = float(expected[~big].sum())
    if tail_expected > 0:
        pooled_counts.append(float(counts[~big].sum()))
        pooled_expected.append(tail_expected)
    pooled_counts = np.asarray(pooled_counts)
    pooled_expected = np.asarray(pooled_expected)
    # chisquare requires matching totals; renormalise the expectation.
    pooled_expected *= pooled_counts.sum() / pooled_expected.sum()
    statistic, p_value = stats.chisquare(pooled_counts, pooled_expected)
    return GoodnessOfFit(
        statistic=float(statistic),
        p_value=float(p_value),
        dof=int(pooled_counts.size - 1),
        samples=samples,
    )
