"""Heterogeneous node capacities — relaxing the uniform-capacity story.

The paper closes Section III with: "if the capacity r_i of each node is
larger than E[L_max], then with high probability the adversary will
never saturate any node."  With *uniform* capacity that is one number;
real clusters mix hardware generations.  Two results packaged here:

1. **Audit** (:func:`audit_capacities`): under random partitioning the
   adversary cannot aim at the weak nodes (the mapping is opaque), so
   every node faces the same worst-case load bound ``E[L_max]`` — the
   cluster is safe iff its *weakest* node clears the bound.  The audit
   reports each node's margin and the saturation-prone set.

2. **Capacity-aware placement** (:func:`utilization_equalizing_bound`):
   if the system pins keys to the least *utilized* (load/capacity)
   replica instead of the least loaded — implemented as
   :class:`repro.cluster.selection.LeastUtilizedKeyPinning` — node ``i``
   carries approximately the ``r_i / sum(r)`` share of the load, and the
   relevant check becomes per-node: ``share_i * total + slack`` vs
   ``r_i``.  This converts dead headroom on big nodes into protection
   for small ones; the helper quantifies the improvement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..exceptions import ConfigurationError
from .bounds import expected_max_load_bound, fold_constant_k
from .cases import plan_best_attack
from .notation import SystemParameters

__all__ = [
    "NodeMargin",
    "CapacityAudit",
    "audit_capacities",
    "utilization_equalizing_bound",
]


@dataclass(frozen=True)
class NodeMargin:
    """One node's standing against the worst-case load bound."""

    node_id: int
    capacity: float
    worst_load_bound: float

    @property
    def margin(self) -> float:
        """``capacity - bound``; negative means saturable."""
        return self.capacity - self.worst_load_bound

    @property
    def safe(self) -> bool:
        """Whether this node survives the worst planned attack."""
        return self.margin >= 0


@dataclass(frozen=True)
class CapacityAudit:
    """Fleet-wide capacity audit under the best adversarial plan."""

    margins: Tuple[NodeMargin, ...]
    worst_load_bound: float
    plan_x: int

    @property
    def safe(self) -> bool:
        """True when every node clears the bound."""
        return all(margin.safe for margin in self.margins)

    @property
    def at_risk(self) -> Tuple[int, ...]:
        """Node ids that an attack could saturate."""
        return tuple(m.node_id for m in self.margins if not m.safe)

    @property
    def weakest_margin(self) -> float:
        """Smallest capacity-minus-bound across the cluster."""
        return min(m.margin for m in self.margins)

    def describe(self) -> str:
        """One-line audit verdict."""
        if self.safe:
            return (
                f"SAFE: all {len(self.margins)} nodes clear the worst-case "
                f"load bound {self.worst_load_bound:.1f} qps "
                f"(weakest margin {self.weakest_margin:.1f})"
            )
        return (
            f"AT RISK: {len(self.at_risk)} node(s) below the worst-case "
            f"load bound {self.worst_load_bound:.1f} qps: {self.at_risk[:10]}"
        )


def audit_capacities(
    params: SystemParameters,
    capacities: Sequence[float],
    k: Optional[float] = None,
    k_prime: float = 1.0,
) -> CapacityAudit:
    """Audit per-node capacities against the adversary's best plan.

    Randomized partitioning is opaque to the attacker, so weak nodes
    cannot be singled out — but by the same token they cannot be
    *spared*: the worst-case bound applies to every node alike, and the
    cluster is only as safe as its weakest member.
    """
    capacities = np.asarray(capacities, dtype=float)
    if capacities.shape != (params.n,):
        raise ConfigurationError(
            f"need one capacity per node: expected {params.n}, got {capacities.size}"
        )
    if np.any(capacities <= 0):
        raise ConfigurationError("capacities must be positive")
    plan = plan_best_attack(params, k=k, k_prime=k_prime)
    if plan.x <= params.c or plan.x < 2:
        bound = 0.0
    else:
        bound = expected_max_load_bound(params, plan.x, k=k, k_prime=k_prime)
    margins = tuple(
        NodeMargin(node_id=i, capacity=float(r), worst_load_bound=bound)
        for i, r in enumerate(capacities)
    )
    return CapacityAudit(margins=margins, worst_load_bound=bound, plan_x=plan.x)


def utilization_equalizing_bound(
    params: SystemParameters,
    capacities: Sequence[float],
    k: Optional[float] = None,
    k_prime: float = 1.0,
) -> np.ndarray:
    """Per-node worst-case load under capacity-proportional placement.

    With utilization-equalizing selection
    (:class:`repro.cluster.selection.LeastUtilizedKeyPinning`) node ``i``
    attracts load in proportion to ``r_i``, so its worst-case share is

        bound_i = (r_i / mean(r)) * (R_backend / n) + slack,

    where the slack is the same d-choice excess as the uniform case
    (one extra key's rate times the folded constant).  Returns the
    length-``n`` vector of per-node bounds; compare elementwise against
    ``capacities`` to check safety.  The uniform-capacity case
    degenerates exactly to Eq. (8).
    """
    capacities = np.asarray(capacities, dtype=float)
    if capacities.shape != (params.n,):
        raise ConfigurationError(
            f"need one capacity per node: expected {params.n}, got {capacities.size}"
        )
    if np.any(capacities <= 0):
        raise ConfigurationError("capacities must be positive")
    plan = plan_best_attack(params, k=k, k_prime=k_prime)
    if plan.x <= params.c or plan.x < 2:
        return np.zeros(params.n)
    x = plan.x
    per_key_rate = params.rate / (x - 1)
    backend_rate = (x - params.c) * per_key_rate
    if k is None:
        k = fold_constant_k(params.n, params.d, k_prime)
    shares = capacities / capacities.mean()
    return shares * (backend_rate / params.n) + k * per_key_rate
