"""Exact simulators of the one-choice and d-choice allocation processes.

All functions return an integer *occupancy vector*: entry ``b`` is the
number of balls that ended up in bin ``b``.  Conservation (the vector
sums to the number of balls) is an invariant the property tests lean on.

Performance notes
-----------------
One-choice allocation is a single ``bincount`` — effectively free.  The
d-choice (least-loaded) process is inherently sequential: ball ``t``'s
placement depends on the loads left by balls ``0 .. t-1``.  It has one
exact implementation, :func:`greedy_loads`, a plain-Python scan over
column lists that every load-vector placement in the package shares
(unit-weight balls here, rate-weighted keys in
:mod:`repro.cluster.selection` and :mod:`repro.cluster.failures`).
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import Optional, Union

import numpy as np

from ..exceptions import ConfigurationError
from ..rng import as_generator

__all__ = [
    "one_choice_allocate",
    "d_choice_allocate",
    "greedy_loads",
    "sample_replica_groups",
    "replica_group_allocate",
]

RngLike = Union[None, int, np.random.Generator]


def _check(balls: int, bins: int, d: int = 1) -> None:
    if balls < 0:
        raise ConfigurationError(f"balls must be non-negative, got {balls}")
    if bins < 1:
        raise ConfigurationError(f"bins must be positive, got {bins}")
    if not 1 <= d <= bins:
        raise ConfigurationError(f"need 1 <= d <= bins, got d={d}, bins={bins}")


def one_choice_allocate(balls: int, bins: int, rng: RngLike = None) -> np.ndarray:
    """Throw ``balls`` balls into ``bins`` bins uniformly at random.

    The classic one-choice process underlying the SoCC'11 baseline.
    """
    _check(balls, bins)
    gen = as_generator(rng, "one-choice")
    if balls == 0:
        return np.zeros(bins, dtype=np.int64)
    targets = gen.integers(0, bins, size=balls)
    return np.bincount(targets, minlength=bins).astype(np.int64)


def sample_replica_groups(
    balls: int,
    bins: int,
    d: int,
    rng: RngLike = None,
    distinct: bool = True,
) -> np.ndarray:
    """Sample a ``(balls, d)`` matrix of candidate bins per ball.

    ``distinct=True`` (the paper's replica-group semantics: ``d``
    *different* nodes hold each item) resamples rows containing
    duplicates; for ``d << bins`` this converges in a couple of rounds.
    ``distinct=False`` gives the textbook with-replacement d-choice
    process — the bounds are the same up to the folded constant.
    """
    _check(balls, bins, d)
    gen = as_generator(rng, "replica-groups")
    if balls == 0:
        return np.zeros((0, d), dtype=np.int64)
    choices = gen.integers(0, bins, size=(balls, d))
    if distinct and d > 1:
        # Each round re-checks only the rows it just redrew: a clean row
        # never changes again, so the draws match checking every row.
        pending, sample = np.arange(balls), choices
        for _ in range(64):
            pending = pending[_has_duplicate(sample)]
            if pending.size == 0:
                break
            sample = gen.integers(0, bins, size=(pending.size, d))
            choices[pending] = sample
        else:
            # Only reachable with d close to bins, where a random row is
            # rarely distinct: draw the stragglers without replacement.
            for row in pending.tolist():
                choices[row] = gen.choice(bins, size=d, replace=False)
    return choices


def _has_duplicate(rows: np.ndarray) -> np.ndarray:
    """Per row of a ``(k, d)`` matrix: whether any two entries are equal."""
    d = rows.shape[1]
    dup = np.zeros(rows.shape[0], dtype=bool)
    for i in range(d - 1):
        for j in range(i + 1, d):
            dup |= rows[:, i] == rows[:, j]
    return dup


def greedy_loads(groups: np.ndarray, weights, n: int) -> np.ndarray:
    """Exact greedy d-choice: every load-vector placement runs through here.

    Row ``i`` of the ``(keys, d)`` matrix ``groups`` lists key ``i``'s
    candidate nodes; keys are placed in row order, each on the candidate
    with the smallest accumulated weight (the first such candidate on
    ties, via a strict ``<``), which then gains ``weights[i]``.  Returns
    the length-``n`` float load vector.

    The loads live in a plain list of ``n + 1`` slots.  Slot ``n`` is a
    sentinel holding ``+inf``: entries that index it (``n``, or ``-1``
    under Python's negative indexing) stand for dead replicas.  With
    finite weights every live load is finite, so the sentinel never beats
    a live candidate, and a row with no live candidate adds its weight to
    the sentinel, which stays ``+inf`` and is dropped from the result.
    Callers validate node ids; only they know which entries are dead.

    The matrix is read as ``d`` column lists and the weights as one list,
    converted once; the scan body is the same for every ``d``.
    """
    loads = [0.0] * n
    loads.append(math.inf)
    first, *others = groups.T.tolist()
    # A row is its first candidate plus a tuple of the others; zip() over
    # no columns would yield no rows at all, hence repeat(()) for d == 1.
    rests = zip(*others) if others else repeat(())
    for weight, best, rest in zip(np.asarray(weights).tolist(), first, rests):
        best_load = loads[best]
        for cand in rest:
            if loads[cand] < best_load:
                best = cand
                best_load = loads[cand]
        loads[best] = best_load + weight
    loads.pop()
    return np.asarray(loads, dtype=float)


def d_choice_allocate(
    balls: int,
    bins: int,
    d: int,
    rng: RngLike = None,
    distinct: bool = True,
    choices: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Greedy d-choice (least-loaded) allocation — the theory model.

    Each ball inspects ``d`` candidate bins and joins the least loaded
    (first of the candidates on ties, matching the usual analysis).  Pass
    ``choices`` to reuse a pre-sampled candidate matrix, e.g. to compare
    selection rules on identical randomness; its entries must be bin ids
    in ``[0, bins)``.  Placement is :func:`greedy_loads` with unit
    weights.
    """
    _check(balls, bins, d)
    if choices is None:
        choices = sample_replica_groups(balls, bins, d, rng=rng, distinct=distinct)
    else:
        choices = np.asarray(choices)
        if choices.shape != (balls, d):
            raise ConfigurationError(
                f"choices must have shape ({balls}, {d}), got {choices.shape}"
            )
        if choices.size and (choices.min() < 0 or choices.max() >= bins):
            raise ConfigurationError(f"choices must be bin ids in [0, {bins})")
    if balls == 0:
        return np.zeros(bins, dtype=np.int64)
    if d == 1:
        return np.bincount(choices[:, 0], minlength=bins).astype(np.int64)
    return greedy_loads(choices, np.ones(balls), bins).astype(np.int64)


def replica_group_allocate(
    balls: int,
    bins: int,
    d: int,
    rng: RngLike = None,
    selection: str = "least-loaded",
) -> np.ndarray:
    """Allocate balls whose candidate sets are replica groups, under a
    named selection rule.

    ``selection``:

    - ``"least-loaded"`` — the theory model (power of d choices);
    - ``"random"`` — each ball picks one of its ``d`` candidates
      uniformly (degrades to the one-choice process);
    - ``"first"`` — deterministic primary replica (also one-choice,
      since groups are random);
    - ``"split"`` — the ball is divided evenly across its ``d``
      candidates (models per-query round-robin in steady state); the
      returned vector is float-valued fractional occupancy.
    """
    _check(balls, bins, d)
    gen = as_generator(rng, "replica-allocate")
    groups = sample_replica_groups(balls, bins, d, rng=gen)
    if selection == "least-loaded":
        return d_choice_allocate(balls, bins, d, choices=groups)
    if selection == "random":
        if balls == 0:
            return np.zeros(bins, dtype=np.int64)
        picks = groups[np.arange(balls), gen.integers(0, d, size=balls)]
        return np.bincount(picks, minlength=bins).astype(np.int64)
    if selection == "first":
        if balls == 0:
            return np.zeros(bins, dtype=np.int64)
        return np.bincount(groups[:, 0], minlength=bins).astype(np.int64)
    if selection == "split":
        occupancy = np.zeros(bins, dtype=float)
        if balls:
            np.add.at(occupancy, groups.ravel(), 1.0 / d)
        return occupancy
    raise ConfigurationError(f"unknown selection rule {selection!r}")
