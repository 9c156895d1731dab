"""Cache-vs-replication tradeoff planning (an operator extension).

The paper treats the replication factor ``d`` as given and sizes the
cache: ``c*(d) = n (log log n / log d + k') + 1``.  But an operator who
controls both knobs faces a real tradeoff:

- raising ``d`` shrinks the required cache (``1 / log d``) but costs
  ``(d - 1) * m`` extra stored replicas and their write amplification;
- raising ``c`` costs front-end memory (and is bounded by what still
  fits alongside the load balancer in fast memory).

Given unit costs for the two resources this module enumerates the
provably-safe ``(c, d)`` frontier and picks the cheapest point — the
kind of planning the paper's conclusion gestures at ("system designers
and managers can always protect their clusters using a small O(n) fast
front-end cache") made concrete.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from ..exceptions import ConfigurationError
from .cases import critical_cache_size

__all__ = ["ResourceCosts", "DefenseOption", "DefensePlan", "plan_defense"]


@dataclass(frozen=True)
class ResourceCosts:
    """Unit costs for the two protection resources.

    Parameters
    ----------
    cache_entry:
        Cost of one front-end cache entry (fast memory is expensive:
        the paper wants the cache "small enough to fit in the L3 cache
        of a fast CPU").
    replica_item:
        Cost of storing one extra replica of one item (disk/SSD plus
        write amplification), paid ``(d - 1) * m`` times.
    """

    cache_entry: float = 1.0
    replica_item: float = 0.001

    def __post_init__(self) -> None:
        if self.cache_entry <= 0 or self.replica_item < 0:
            raise ConfigurationError(
                "cache_entry cost must be positive and replica_item non-negative"
            )


@dataclass(frozen=True)
class DefenseOption:
    """One provably-safe point on the (c, d) frontier."""

    d: int
    required_cache: int
    cache_cost: float
    replication_cost: float

    @property
    def total_cost(self) -> float:
        """Combined cost of this option."""
        return self.cache_cost + self.replication_cost

    def describe(self) -> str:
        """Human-readable row."""
        return (
            f"d={self.d}: cache {self.required_cache} entries "
            f"(cost {self.cache_cost:g}) + replication cost "
            f"{self.replication_cost:g} = {self.total_cost:g}"
        )


@dataclass(frozen=True)
class DefensePlan:
    """Result of :func:`plan_defense`: the frontier and its optimum."""

    options: Tuple[DefenseOption, ...]
    best: DefenseOption

    def describe(self) -> str:
        """Multi-line frontier summary with the optimum marked."""
        lines = []
        for option in self.options:
            marker = " <== cheapest" if option is self.best else ""
            lines.append(option.describe() + marker)
        return "\n".join(lines)


def plan_defense(
    n: int,
    m: int,
    costs: ResourceCosts = ResourceCosts(),
    d_candidates: Sequence[int] = (2, 3, 4, 5, 6),
    k_prime: float = 1.0,
    max_cache: Optional[int] = None,
) -> DefensePlan:
    """Choose the cheapest provably-DDoS-proof ``(c, d)`` combination.

    Parameters
    ----------
    n, m:
        Node count and item count.
    costs:
        Unit costs; the tradeoff's slope.
    d_candidates:
        Replication factors to consider (``d >= 2`` — the ``d = 1``
        world has no prevention theorem at all, see
        :mod:`repro.core.baseline_socc11`).
    k_prime:
        Theta(1) remainder used in the cache bound.
    max_cache:
        Optional hard ceiling on the front-end cache (fast-memory
        budget); options needing more are excluded.

    Raises
    ------
    ConfigurationError
        If no candidate satisfies the constraints.
    """
    if n < 1 or m < 1:
        raise ConfigurationError("need n >= 1 and m >= 1")
    options = []
    for d in sorted(set(d_candidates)):
        if d < 2:
            raise ConfigurationError(f"prevention requires d >= 2, got candidate {d}")
        if d > n:
            continue
        required = critical_cache_size(n, d, k_prime=k_prime)
        # A cache can never usefully exceed the key space.
        required = min(required, m)
        if max_cache is not None and required > max_cache:
            continue
        options.append(
            DefenseOption(
                d=d,
                required_cache=required,
                cache_cost=required * costs.cache_entry,
                replication_cost=(d - 1) * m * costs.replica_item,
            )
        )
    if not options:
        raise ConfigurationError(
            "no (c, d) combination satisfies the constraints; raise max_cache "
            "or extend d_candidates"
        )
    best = min(options, key=lambda option: option.total_cost)
    return DefensePlan(options=tuple(options), best=best)
