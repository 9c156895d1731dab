"""Node-failure injection: what replication buys besides load balancing.

The paper motivates replication with fault tolerance ("fault tolerance
and reliability of the system is also greatly enhanced") before using it
for DDoS prevention.  The two interact: when nodes fail, each affected
key loses replicas — its effective ``d`` shrinks — so the surviving
nodes absorb more load *and* with less choice, exactly when the cluster
can least afford it.  This module injects failures into replica groups
and quantifies both effects:

- **availability**: a key with all ``d`` replicas down is unavailable;
  for a random failure set of fraction ``f`` that happens with
  probability ``~ f^d`` per key (verified by the property tests);
- **degraded load**: surviving keys are re-pinned among their surviving
  replicas, and the max-load analysis re-runs on the degraded groups.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Set, Tuple, Union

import numpy as np

from ..ballsbins.allocation import greedy_loads
from ..exceptions import ConfigurationError
from ..rng import as_generator

__all__ = [
    "DegradedGroups",
    "degrade_groups",
    "sample_failures",
    "expected_unavailable_fraction",
]

RngLike = Union[None, int, np.random.Generator]


@dataclass(frozen=True)
class DegradedGroups:
    """Replica groups after removing failed nodes.

    Attributes
    ----------
    groups:
        The ``(keys, d)`` replica-group matrix with every failed replica
        replaced by ``-1``; survivors keep their slots.
    unavailable:
        Indices of keys that lost *all* replicas.
    failed:
        The injected failure set.
    """

    groups: np.ndarray
    unavailable: np.ndarray
    failed: Tuple[int, ...]

    @property
    def n_keys(self) -> int:
        """Number of keys covered (available or not)."""
        return int(self.groups.shape[0])

    @property
    def unavailable_fraction(self) -> float:
        """Fraction of keys with zero surviving replicas."""
        if self.n_keys == 0:
            return 0.0
        return self.unavailable.size / self.n_keys

    def survivors_of(self, key_index: int) -> np.ndarray:
        """Surviving replica ids for the ``key_index``-th key."""
        if not 0 <= key_index < self.n_keys:
            raise ConfigurationError(
                f"key_index must be in [0, {self.n_keys}), got {key_index}"
            )
        row = self.groups[key_index]
        return row[row >= 0]

    def least_loaded_loads(self, rates: np.ndarray, n: int) -> np.ndarray:
        """Greedy least-loaded placement over the *surviving* replicas.

        Unavailable keys contribute no load (their queries fail
        upstream); the returned vector covers all ``n`` nodes, failed
        ones included (always 0 there).  The matrix goes to
        :func:`~repro.ballsbins.allocation.greedy_loads` as is: its
        ``-1`` entries index the kernel's ``+inf`` sentinel slot, which
        never beats a surviving replica and absorbs unavailable keys.
        That needs finite rates, so they are checked.
        """
        rates = np.asarray(rates, dtype=float)
        if rates.shape != (self.n_keys,):
            raise ConfigurationError(
                f"rates must have one entry per key ({self.n_keys}), got {rates.shape}"
            )
        if not np.isfinite(rates).all():
            raise ConfigurationError("rates must be finite")
        if self.n_keys and self.groups.max() >= n:
            raise ConfigurationError(f"replica ids must be node ids in [0, {n})")
        return greedy_loads(self.groups, rates, n)


def sample_failures(
    n: int, failed_fraction: float, rng: RngLike = None
) -> Tuple[int, ...]:
    """Draw a uniform random failure set of ``round(f * n)`` nodes."""
    if not 0.0 <= failed_fraction < 1.0:
        raise ConfigurationError(
            f"failed_fraction must be in [0, 1), got {failed_fraction}"
        )
    count = int(round(failed_fraction * n))
    if count == 0:
        return ()
    gen = as_generator(rng, "failures")
    return tuple(int(x) for x in gen.choice(n, size=count, replace=False))


def degrade_groups(
    groups: np.ndarray, failed: Sequence[int], n: Optional[int] = None
) -> DegradedGroups:
    """Remove failed nodes from every replica group.

    Parameters
    ----------
    groups:
        ``(keys, d)`` replica-group matrix.
    failed:
        Node ids that are down.
    n:
        Node count, for validating the failure set (optional).
    """
    groups = np.asarray(groups, dtype=np.int64)
    if groups.ndim != 2 or groups.shape[1] == 0:
        raise ConfigurationError("groups must be a (keys, d) matrix with d >= 1")
    if groups.size and groups.min() < 0:
        raise ConfigurationError("group entries must be node ids >= 0")
    failed_set: Set[int] = set(int(x) for x in failed)
    if n is not None and any(not 0 <= x < n for x in failed_set):
        raise ConfigurationError("failure set contains node ids outside [0, n)")
    is_down = np.zeros(groups.max(initial=-1) + 1, dtype=bool)
    is_down[[x for x in failed_set if 0 <= x < is_down.size]] = True
    dead = is_down[groups]
    all_dead = np.ones(groups.shape[0], dtype=bool)
    for column in dead.T:
        all_dead &= column
    return DegradedGroups(
        groups=np.where(dead, -1, groups),
        unavailable=np.flatnonzero(all_dead),
        failed=tuple(sorted(failed_set)),
    )


def expected_unavailable_fraction(n: int, d: int, failed: int) -> float:
    """Exact probability a key loses all replicas to a random failure set.

    Replica groups are ``d`` distinct nodes; with ``failed`` of ``n``
    nodes down uniformly at random, a key is unavailable iff its whole
    group lies inside the failure set:

        P = C(failed, d) / C(n, d).
    """
    if not 1 <= d <= n:
        raise ConfigurationError(f"need 1 <= d <= n, got d={d}, n={n}")
    if not 0 <= failed <= n:
        raise ConfigurationError(f"need 0 <= failed <= n, got {failed}")
    if failed < d:
        return 0.0
    prob = 1.0
    for i in range(d):
        prob *= (failed - i) / (n - i)
    return prob
