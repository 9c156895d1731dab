"""Reference placement code, kept as test oracles.

The greedy loops are the plain per-row loops that placement used before
every caller moved onto :func:`repro.ballsbins.allocation.greedy_loads`,
plus :func:`greedy_rows`, the same loop over a caller's loads list with
its picks, as the scan ran over ``tolist()`` columns; the sampler is the sort-based duplicate check that
:func:`repro.ballsbins.allocation.sample_replica_groups` used.  The
differential tests require the library to reproduce them byte for byte.
"""

import numpy as np


def sample_replica_groups_sorted(balls: int, bins: int, d: int, seed: int) -> np.ndarray:
    """Distinct replica groups, duplicates found by sorting every row."""
    gen = np.random.default_rng(seed)
    choices = gen.integers(0, bins, size=(balls, d))
    if d > 1:
        for _ in range(64):
            sorted_rows = np.sort(choices, axis=1)
            dup_mask = (np.diff(sorted_rows, axis=1) == 0).any(axis=1)
            n_dup = int(dup_mask.sum())
            if n_dup == 0:
                break
            choices[dup_mask] = gen.integers(0, bins, size=(n_dup, d))
        else:
            for row in np.nonzero(dup_mask)[0]:
                choices[row] = gen.choice(bins, size=d, replace=False)
    return choices.astype(np.int64)


def d_choice_sequential(choices: np.ndarray, bins: int) -> np.ndarray:
    """Unit-weight greedy over a ``(balls, d)`` candidate matrix."""
    loads = [0] * bins
    for row in choices.tolist():
        best = row[0]
        best_load = loads[best]
        for cand in row[1:]:
            cand_load = loads[cand]
            if cand_load < best_load:
                best = cand
                best_load = cand_load
        loads[best] = best_load + 1
    return np.asarray(loads, dtype=np.int64)


def weighted_node_loads(groups: np.ndarray, rates: np.ndarray, n: int) -> np.ndarray:
    """Rate-weighted greedy, as ``LeastLoadedKeyPinning.node_loads`` ran it."""
    loads = [0.0] * n
    for row, rate in zip(groups.tolist(), rates.tolist()):
        best = row[0]
        best_load = loads[best]
        for cand in row[1:]:
            cand_load = loads[cand]
            if cand_load < best_load:
                best = cand
                best_load = cand_load
        loads[best] = best_load + rate
    return np.asarray(loads, dtype=float)


def ragged_least_loaded(groups: np.ndarray, failed, rates: np.ndarray, n: int) -> np.ndarray:
    """Greedy over each key's surviving replicas, from a ragged layout.

    Survivors are flattened key by key with offsets, and keys with no
    survivor are skipped — the layout ``DegradedGroups`` used to store.
    """
    alive_mask = ~np.isin(groups, list(failed) or [-1])
    offsets = np.zeros(groups.shape[0] + 1, dtype=np.int64)
    np.cumsum(alive_mask.sum(axis=1), out=offsets[1:])
    flat = groups[alive_mask].tolist()
    offsets = offsets.tolist()
    loads = [0.0] * n
    for i, rate in enumerate(np.asarray(rates, dtype=float).tolist()):
        lo, hi = offsets[i], offsets[i + 1]
        if lo == hi:
            continue
        best = flat[lo]
        best_load = loads[best]
        for j in range(lo + 1, hi):
            cand = flat[j]
            if loads[cand] < best_load:
                best = cand
                best_load = loads[cand]
        loads[best] = best_load + rate
    return np.asarray(loads, dtype=float)


def greedy_rows(loads: list, groups: np.ndarray, weights) -> list:
    """Per-row greedy on ``loads`` in place; returns every row's pick.

    Entries index ``loads`` as Python ints, so ``-1`` names its last
    slot (the dead-replica sentinel) and an out-of-range id raises.
    """
    picks = []
    for row, weight in zip(groups.tolist(), weights):
        best = row[0]
        best_load = loads[best]
        for cand in row[1:]:
            if loads[cand] < best_load:
                best = cand
                best_load = loads[cand]
        loads[best] = best_load + weight
        picks.append(best)
    return picks
