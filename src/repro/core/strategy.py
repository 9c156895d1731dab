"""Theorem 1 and the optimal adversarial access pattern (Section III-A).

The adversary expresses an attack as a query distribution
``S = (p_1, ..., p_m)`` over the ``m`` keys, listed in non-increasing
popularity so the front end caches keys ``0 .. c-1``.  Theorem 1 says:
whenever two *uncached* keys ``i < j`` satisfy ``h - p_i >= p_j > 0``
(with ``h`` the common probability of the cached keys), shifting
``delta = min(h - p_i, p_j)`` of mass from ``j`` to ``i`` cannot decrease
the expected maximum load.  Iterating this improvement step converges to
the canonical form of Eq. (4):

    p_1 = ... = p_c = h = p_{c+1} = ... = p_{x-1},   p_x in (0, h],
    p_{x+1} = ... = p_m = 0.

Maximising back-end traffic further forces ``h`` as small as the ordering
constraint allows, ``h = 1/x``, i.e. the *uniform distribution over a
prefix of x keys* — exactly what the paper simulates ("x different keys
are queried at the same rate").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..exceptions import DistributionError
from .notation import SystemParameters

__all__ = [
    "AdversarialPattern",
    "canonical_pattern",
    "uniform_prefix_pattern",
    "optimal_pattern",
    "is_canonical",
    "theorem1_step",
    "run_theorem1_to_fixed_point",
]

_ATOL = 1e-12


@dataclass(frozen=True)
class AdversarialPattern:
    """A query distribution over the key space, with cache-aware views.

    Attributes
    ----------
    probs:
        Probability of each key ``0 .. m-1`` (non-increasing).
    cache_size:
        The public cache size ``c`` the pattern was designed against.
    """

    probs: np.ndarray
    cache_size: int

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 1 or probs.size == 0:
            raise DistributionError("pattern needs a non-empty 1-D probability vector")
        if np.any(probs < -_ATOL):
            raise DistributionError("probabilities must be non-negative")
        if not math.isclose(float(probs.sum()), 1.0, abs_tol=1e-9):
            raise DistributionError(
                f"probabilities must sum to 1, got {float(probs.sum())!r}"
            )
        if np.any(np.diff(probs) > _ATOL):
            raise DistributionError(
                "keys must be listed in non-increasing popularity order"
            )
        if not 0 <= self.cache_size <= probs.size:
            raise DistributionError(
                f"cache_size must be in [0, m], got {self.cache_size}"
            )
        object.__setattr__(self, "probs", np.clip(probs, 0.0, None))

    @property
    def m(self) -> int:
        """Size of the key space."""
        return int(self.probs.size)

    @property
    def x(self) -> int:
        """Number of keys queried with non-zero probability."""
        return int(np.count_nonzero(self.probs > _ATOL))

    @property
    def h(self) -> float:
        """Common probability of the cached (most popular) keys.

        For ``c = 0`` this is the probability of the most popular key,
        which plays the same ceiling role in Theorem 1.
        """
        return float(self.probs[0])

    @property
    def cached_fraction(self) -> float:
        """Fraction of queries absorbed by a perfect cache of size ``c``."""
        return float(self.probs[: self.cache_size].sum())

    @property
    def backend_fraction(self) -> float:
        """Fraction of queries that reach the back-end nodes."""
        return 1.0 - self.cached_fraction


def canonical_pattern(m: int, x: int, cache_size: int, h: Optional[float] = None) -> AdversarialPattern:
    """Build the Eq. (4) canonical pattern: ``x - 1`` keys at ``h``, a
    remainder key, zeros after.

    Parameters
    ----------
    m, x, cache_size:
        Key-space size, number of queried keys, public cache size.
    h:
        Common probability of the first ``x - 1`` keys.  Must satisfy
        ``1/x <= h <= 1/(x-1)`` so the remainder ``1 - (x-1) h`` lies in
        ``(0, h]`` (for ``x = 1``, ``h`` is forced to 1).  ``None`` picks
        the load-maximising value ``1/x`` (uniform over ``x`` keys).
    """
    if not 1 <= x <= m:
        raise DistributionError(f"need 1 <= x <= m, got x={x}, m={m}")
    if x == 1:
        probs = np.zeros(m)
        probs[0] = 1.0
        return AdversarialPattern(probs, cache_size)
    if h is None:
        h = 1.0 / x
    if not (1.0 / x - _ATOL <= h <= 1.0 / (x - 1) + _ATOL):
        raise DistributionError(
            f"h must lie in [1/x, 1/(x-1)] = [{1.0/x:.6g}, {1.0/(x-1):.6g}], got {h:.6g}"
        )
    probs = np.zeros(m)
    probs[: x - 1] = h
    probs[x - 1] = max(0.0, 1.0 - (x - 1) * h)
    return AdversarialPattern(probs, cache_size)


def uniform_prefix_pattern(m: int, x: int, cache_size: int) -> AdversarialPattern:
    """Uniform distribution over the first ``x`` of ``m`` keys.

    This is the pattern the paper's simulations use and the fixed point
    of Theorem 1 with the smallest possible cache absorption.
    """
    return canonical_pattern(m, x, cache_size, h=None)


def optimal_pattern(params: SystemParameters, x: int) -> AdversarialPattern:
    """The load-maximising pattern for an adversary querying ``x`` keys.

    Combines Theorem 1 (canonical prefix form) with the minimal cache
    share (``h = 1/x``).  Choosing the best ``x`` itself is the job of
    :func:`repro.core.cases.plan_best_attack`.
    """
    return uniform_prefix_pattern(params.m, x, params.c)


def is_canonical(pattern: AdversarialPattern, atol: float = 1e-9) -> bool:
    """Check whether ``pattern`` has the Eq. (4) fixed-point form.

    The first ``x - 1`` queried keys share the top probability ``h``, the
    ``x``-th carries the remainder in ``(0, h]``, and all later keys are
    zero (zero-tail is guaranteed by the sortedness invariant).
    """
    x = pattern.x
    if x <= 1:
        return True
    probs = pattern.probs
    h = probs[0]
    head_equal = bool(np.allclose(probs[: x - 1], h, atol=atol))
    remainder_ok = bool(probs[x - 1] <= h + atol)
    return head_equal and remainder_ok


def theorem1_step(pattern: AdversarialPattern) -> Optional[AdversarialPattern]:
    """Apply one improvement step of Theorem 1, or return ``None`` at a
    fixed point.

    Finds the most popular uncached key ``i`` with ``p_i < h`` and the
    least popular key ``j > i`` with ``p_j > 0``, then moves
    ``delta = min(h - p_i, p_j)`` of probability from ``j`` to ``i``.
    The theorem covers only the full move (``h - p_i >= p_j``); the
    partial move ``delta = h - p_i < p_j`` is outside it and can lower
    the expected maximum back-end load (exactly at n=3, d=2, c=2:
    0.73907 -> 0.73780).  Either way the step reaches the fixed point of
    Eq. (4), the uniform prefix the theorem identifies.
    """
    probs = pattern.probs.copy()
    c = pattern.cache_size
    h = pattern.h
    uncached = probs[c:]
    below = np.nonzero(uncached < h - _ATOL)[0]
    if below.size == 0:
        return None
    i = int(below[0]) + c
    positive = np.nonzero(probs > _ATOL)[0]
    j = int(positive[-1])
    if j <= i:
        return None
    delta = min(h - probs[i], probs[j])
    if delta <= _ATOL:
        return None
    probs[i] += delta
    probs[j] -= delta
    probs = np.sort(probs)[::-1]
    return AdversarialPattern(probs, c)


def run_theorem1_to_fixed_point(
    pattern: AdversarialPattern, max_steps: int = 1_000_000
) -> Tuple[AdversarialPattern, int]:
    """Iterate :func:`theorem1_step` until no improvement remains.

    Returns the fixed point and the number of steps taken.  Each step
    either zeroes a key or tops one up to ``h``, so the process needs at
    most ``2 m`` steps; ``max_steps`` is a safety valve.
    """
    steps = 0
    current = pattern
    while steps < max_steps:
        nxt = theorem1_step(current)
        if nxt is None:
            return current, steps
        current = nxt
        steps += 1
    raise DistributionError(f"Theorem 1 iteration did not converge in {max_steps} steps")
