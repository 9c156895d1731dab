"""Empirical critical cache size (the crossing in Figure 5(a)).

The paper's Figure 5(a) identifies a *critical point*: the cache size at
which the best achievable attack gain crosses 1.0, and shows the
analytic bound ``c* = n k + 1`` lands close to it.  This test helper
locates the empirical crossing by bisection on the (monotone
non-increasing) measured gain curve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Tuple

from repro.exceptions import AnalysisError

__all__ = ["CriticalPointResult", "find_critical_cache_size"]


@dataclass(frozen=True)
class CriticalPointResult:
    """Outcome of the bisection search.

    Attributes
    ----------
    critical_cache:
        Smallest probed cache size with measured gain <= 1.0.
    evaluations:
        Every ``(cache_size, gain)`` pair measured along the way.
    lo, hi:
        Final bracket: gain(lo) > 1.0 >= gain(hi).
    """

    critical_cache: int
    evaluations: Tuple[Tuple[int, float], ...]
    lo: int
    hi: int

    def describe(self) -> str:
        """Human-readable summary."""
        return (
            f"critical cache size ~ {self.critical_cache} "
            f"(bracket [{self.lo}, {self.hi}], {len(self.evaluations)} measurements)"
        )


def find_critical_cache_size(
    gain_at: Callable[[int], float],
    lo: int,
    hi: int,
    tolerance: int = 1,
) -> CriticalPointResult:
    """Bisect for the smallest cache size whose measured gain <= 1.0.

    Parameters
    ----------
    gain_at:
        Callable mapping a cache size to the *best achievable* attack
        gain (e.g. the ``best_gain`` column of a one-point
        :func:`repro.experiments.fig5.run_fig5` sweep).  Must be
        (statistically) non-increasing in the cache size.
    lo, hi:
        Initial bracket; requires ``gain_at(lo) > 1.0 >= gain_at(hi)``.
    tolerance:
        Stop when the bracket width reaches this many cache entries.

    Notes
    -----
    Monte-Carlo noise can make the measured curve locally
    non-monotone near the crossing; bisection still converges to a point
    within the noise band of the true critical size, which is how the
    paper's own figure reads.
    """
    if lo >= hi:
        raise AnalysisError(f"need lo < hi, got lo={lo}, hi={hi}")
    if tolerance < 1:
        raise AnalysisError(f"tolerance must be >= 1, got {tolerance}")
    evaluations: List[Tuple[int, float]] = []

    def measure(c: int) -> float:
        gain = float(gain_at(c))
        evaluations.append((c, gain))
        return gain

    gain_lo = measure(lo)
    gain_hi = measure(hi)
    if gain_lo <= 1.0:
        raise AnalysisError(
            f"gain at lo={lo} is already {gain_lo:.3f} <= 1.0; lower the bracket"
        )
    if gain_hi > 1.0:
        raise AnalysisError(
            f"gain at hi={hi} is still {gain_hi:.3f} > 1.0; raise the bracket"
        )
    while hi - lo > tolerance:
        mid = (lo + hi) // 2
        if measure(mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return CriticalPointResult(
        critical_cache=hi,
        evaluations=tuple(evaluations),
        lo=lo,
        hi=hi,
    )
