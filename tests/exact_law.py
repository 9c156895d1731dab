"""The exact law of the greedy d-choice max load, for small systems.

Every other allocation test compares implementations with each other or
checks a loose bound, so a bias they share (in the replica-group sampler
or in a tie rule) would pass them all.  This helper computes the law of
the model itself, for a chi-square test of the simulated max load.

The law is a dynamic program over *sorted load profiles*.  Sort the
``n`` bins by load, ascending.  A ball's ``d`` candidates are a uniformly
random ``d``-subset of the bins (or ``d`` independent uniform bins, with
``distinct=False``), and it joins the least loaded one.  It therefore
lands on ascending rank ``i`` when ``i`` is the smallest rank among its
candidates, with probability :func:`min_rank_law`.  Which of several
equally loaded bins it joins does not change the sorted profile, so the
tie rule drops out, and the profile after each ball is a Markov chain.

Run as a script, it prints the exact gap ``E[max] - balls/n`` against
``log log n / log d`` (the EXPERIMENTS.md table), with states below
:data:`PRUNE` dropped::

    PYTHONPATH=src python tests/exact_law.py
"""

from __future__ import annotations

from math import comb, log
from typing import Dict, List, Sequence, Tuple

import numpy as np
from scipy import stats

__all__ = ["PRUNE", "min_rank_law", "max_load_law", "chi_square_max_load"]

#: State-pruning threshold for large systems: a profile whose
#: probability falls below it is dropped after each ball.
PRUNE = 1e-14


def min_rank_law(n: int, d: int, distinct: bool = True) -> List[float]:
    """P(the smallest of a ball's ``d`` candidate ranks is ``i``), i < n.

    Distinct candidates: ``C(n-1-i, d-1) / C(n, d)``.  Independent ones:
    ``((n-i)^d - (n-1-i)^d) / n^d``.
    """
    if distinct:
        total = comb(n, d)
        return [comb(n - 1 - i, d - 1) / total for i in range(n)]
    return [((n - i) ** d - (n - 1 - i) ** d) / n**d for i in range(n)]


def max_load_law(
    n: int, d: int, balls: int, distinct: bool = True, prune: float = 0.0
) -> Dict[int, float]:
    """The exact law of the max load after ``balls`` greedy placements.

    Returns ``{max load: probability}``.  The state count is the number
    of sorted profiles reachable, about a thousand at ``n = 16`` and 32
    balls.  ``prune`` (for example :data:`PRUNE`) drops every profile
    less likely than it after each ball; the dropped mass is lost, not
    renormalised.
    """
    rank = min_rank_law(n, d, distinct)
    states: Dict[Tuple[int, ...], float] = {(0,) * n: 1.0}
    for _ in range(balls):
        nxt: Dict[Tuple[int, ...], float] = {}
        for profile, p in states.items():
            start = 0
            while start < n:
                # Ranks start .. end-1 share one load: a ball on any of
                # them leaves the same sorted profile, with the top rank
                # of the run raised by one.
                end = start + 1
                while end < n and profile[end] == profile[start]:
                    end += 1
                q = sum(rank[start:end])
                if q:
                    grown = profile[: end - 1] + (profile[end - 1] + 1,) + profile[end:]
                    nxt[grown] = nxt.get(grown, 0.0) + p * q
                start = end
        states = {k: v for k, v in nxt.items() if v >= prune} if prune else nxt
    law: Dict[int, float] = {}
    for profile, p in states.items():
        law[profile[-1]] = law.get(profile[-1], 0.0) + p
    return dict(sorted(law.items()))


def chi_square_max_load(
    observed: Sequence[int], law: Dict[int, float], min_expected: float = 5.0
) -> Tuple[float, float, int]:
    """Pearson chi-square of per-trial max loads against ``law``.

    Cells are the max-load values in order; the lowest and highest are
    pooled inwards until every cell expects at least ``min_expected``
    trials.  A value the law gives probability 0 lands in the nearest
    cell, so an impossible outcome still counts against the fit.
    Returns ``(statistic, p value, degrees of freedom)``.
    """
    observed = np.asarray(observed)
    trials = observed.size
    values = np.array(list(law), dtype=np.int64)
    expected = np.array([law[v] for v in values.tolist()]) * trials
    counts = np.bincount(
        np.searchsorted(values, np.clip(observed, values[0], values[-1])),
        minlength=values.size,
    ).astype(float)
    # Pool from both ends towards the middle.
    cells_e, cells_o = list(expected), list(counts)
    while len(cells_e) > 1 and cells_e[0] < min_expected:
        e, o = cells_e.pop(0), cells_o.pop(0)
        cells_e[0] += e
        cells_o[0] += o
    while len(cells_e) > 1 and cells_e[-1] < min_expected:
        e, o = cells_e.pop(), cells_o.pop()
        cells_e[-1] += e
        cells_o[-1] += o
    if len(cells_e) < 2:
        raise ValueError("the law has fewer than two cells to test")
    cells_e = np.asarray(cells_e)
    cells_e *= trials / cells_e.sum()
    statistic, p_value = stats.chisquare(np.asarray(cells_o), cells_e)
    return float(statistic), float(p_value), len(cells_e) - 1


def _gap_table() -> None:
    """Print the exact ``E[max] - balls/n`` against ``log log n / log d``."""
    per_bin = (1, 2, 4, 8)
    print("| n | d | log log n / log d | "
          + " | ".join(f"{b} ball{'s' if b > 1 else ''}/bin" for b in per_bin) + " |")
    print("|---|---|---|" + "---|" * len(per_bin))
    for n in (8, 16):
        for d in (2, 3):
            gaps = []
            for b in per_bin:
                law = max_load_law(n, d, b * n, prune=PRUNE)
                gaps.append(sum(k * p for k, p in law.items()) - b)
            print(f"| {n} | {d} | {log(log(n)) / log(d):.3f} | "
                  + " | ".join(f"{g:.3f}" for g in gaps) + " |")


if __name__ == "__main__":
    _gap_table()
