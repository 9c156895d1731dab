"""Exact simulators of the one-choice and d-choice allocation processes.

All functions return an integer *occupancy vector*: entry ``b`` is the
number of balls that ended up in bin ``b``.  Conservation (the vector
sums to the number of balls) is an invariant the property tests lean on.

Performance notes
-----------------
One-choice allocation is a single ``bincount`` — effectively free.  The
d-choice (least-loaded) process is inherently sequential: ball ``t``'s
placement depends on the loads left by balls ``0 .. t-1``.  It has one
exact implementation, a plain-Python scan over the candidate columns
that one template generates per row width ``d`` (:func:`greedy_scan`).
Every least-loaded placement in the package runs on it: through
:func:`greedy_loads`, unit-weight balls here and rate-weighted keys in
:mod:`repro.cluster.selection` and :mod:`repro.cluster.failures`; and
directly, the event kernel's first-sight pin rule
(:func:`repro.sim.kernel._route_batch`), which also reads the picks.

The scan streams its inputs.  The candidate columns arrive as one
``memoryview`` each, over a contiguous copy of ``groups.T`` in the
narrowest signed integer type that holds every entry, and non-uniform
weights as a ``memoryview`` of a float64 array.  Iterating a memoryview
makes each Python number as the scan reaches it and frees it right
after.  ``tolist()`` kept ``d`` ints per ball alive for the whole call
(about 300k at the Fig. 3a endpoint, ``d = 3`` and 99.8k balls), in
arenas the allocator mapped and unmapped again at every sweep point.
The numbers the scan sees are the same, so the loads and picks are too.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import repeat
from typing import Iterable, List, Optional, Union

import numpy as np

from ..exceptions import ConfigurationError
from ..rng import as_generator

__all__ = [
    "one_choice_allocate",
    "d_choice_allocate",
    "greedy_loads",
    "greedy_scan",
    "sample_replica_groups",
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

    Placement is :func:`greedy_scan`.  When every weight is equal (unit
    balls, uniform floods) the scan iterates one repeated value instead
    of a list of ``keys`` floats; the adds, and so the loads, are the
    same.  Other weights stream as a ``memoryview`` of their float64
    values, which the loads (floats from ``0.0``) would take anyway.
    """
    loads = [0.0] * n
    loads.append(math.inf)
    weights = np.asarray(weights)
    if weights.size and (weights == weights[0]).all():
        greedy_scan(loads, groups, repeat(weights[0].item(), weights.size))
    else:
        weights = np.ascontiguousarray(weights, dtype=np.float64)
        greedy_scan(loads, groups, memoryview(weights))
    loads.pop()
    return np.asarray(loads, dtype=float)


def greedy_scan(
    loads: list, groups: np.ndarray, weights: Iterable, picks: bool = False
) -> Optional[List[int]]:
    """Place the rows of ``groups`` greedily on ``loads``, in place.

    ``loads`` is a plain list that every entry of the ``(keys, d)``
    matrix ``groups`` indexes; key ``i`` goes to its candidate with the
    smallest load (the first on ties), which then gains the ``i``-th
    item of ``weights``, as ``loads[b] = best + w``.  With ``picks`` the
    chosen slot of every key is returned, in row order.

    The scan is the function :func:`_scan` generates for ``d`` and
    ``picks``: straight-line code with one comparison per candidate, no
    inner loop and no per-key branch on ``picks``.  The columns arrive
    as memoryviews (:func:`_columns`), so each id becomes a Python int
    only when the scan reaches it, instead of ``d`` lists of ``keys``
    ints held for the whole call.
    """
    columns = _columns(groups)
    return _scan(len(columns), picks)(loads, weights, *columns)


_ID_TYPES = (np.int8, np.int16, np.int32, np.int64)


def _columns(groups: np.ndarray) -> List[memoryview]:
    """One ``memoryview`` per column of the ``(keys, d)`` id matrix.

    The views share one contiguous copy of ``groups.T`` in the narrowest
    of :data:`_ID_TYPES` that holds every entry, so the copy is small
    and no id wraps: an entry out of the scan's range stays out of it
    and raises ``IndexError`` there, as from a list.
    """
    if groups.dtype.kind not in "iu":
        raise TypeError(f"candidate ids must be integers, got {groups.dtype}")
    dtype = groups.dtype
    if groups.size:
        lo, hi = int(groups.min()), int(groups.max())
        for narrow in _ID_TYPES:
            if np.iinfo(narrow).min <= lo and hi <= np.iinfo(narrow).max:
                dtype = narrow
                break
    return [memoryview(column) for column in np.ascontiguousarray(groups.T, dtype=dtype)]


@lru_cache(maxsize=None)
def _scan(d: int, picks: bool):
    """Generate, compile and cache the greedy scan for rows of width ``d``.

    The template, for ``d = 3`` without picks::

        def scan(loads, weights, c0, c1, c2):
            for w, b, k1, k2 in zip(weights, c0, c1, c2):
                best = loads[b]
                if loads[k1] < best:
                    b = k1
                    best = loads[b]
                if loads[k2] < best:
                    b = k2
                    best = loads[b]
                loads[b] = best + w

    With ``picks`` it also appends every ``b`` to a list it returns.
    Generated on first use (as :mod:`dataclasses` builds its methods),
    so importing the package compiles nothing.
    """
    columns = ", ".join(f"c{j}" for j in range(d))
    targets = ", ".join(["w", "b"] + [f"k{j}" for j in range(1, d)])
    lines = [f"def scan(loads, weights, {columns}):"]
    if picks:
        lines += ["    picks = []", "    pick = picks.append"]
    lines += [f"    for {targets} in zip(weights, {columns}):", "        best = loads[b]"]
    for j in range(1, d):
        lines += [
            f"        if loads[k{j}] < best:",
            f"            b = k{j}",
            "            best = loads[b]",
        ]
    lines.append("        loads[b] = best + w")
    if picks:
        lines += ["        pick(b)", "    return picks"]
    namespace: dict = {}
    exec(compile("\n".join(lines), f"<greedy scan d={d}>", "exec"), namespace)
    return namespace["scan"]


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
