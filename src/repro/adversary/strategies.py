"""Attack strategies.

Each strategy maps public knowledge to a
:class:`~repro.workload.distributions.KeyDistribution` describing the
traffic it would send.  The simulators then execute that traffic against
a system whose internal randomness the strategy never saw.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..core.cases import optimal_query_count
from ..core.notation import SystemParameters
from ..exceptions import ConfigurationError
from ..scenario.registry import register_component
from ..workload.adversarial import AdversarialDistribution
from ..workload.distributions import KeyDistribution, UniformDistribution
from ..workload.keyset import KeySetDistribution
from ..workload.zipf import ZipfDistribution

__all__ = [
    "Adversary",
    "OptimalAdversary",
    "FixedSubsetFlood",
    "UniformFlood",
    "ZipfClient",
    "AdaptiveProbingAdversary",
    "ShardTargetingAdversary",
]


class Adversary(ABC):
    """A traffic source with public knowledge of the target system."""

    #: Short name used in reports and figure legends.
    name: str = "abstract"

    def __init__(self, public: SystemParameters) -> None:
        self._public = public

    @property
    def public(self) -> SystemParameters:
        """The public parameters the strategy was planned against."""
        return self._public

    @abstractmethod
    def distribution(self) -> KeyDistribution:
        """The access pattern this adversary sends."""


@register_component("adversary", "adversarial")
class OptimalAdversary(Adversary):
    """The paper's bound-optimal strategy (Theorem 1 + case analysis).

    Queries ``x`` keys uniformly, with ``x = c + 1`` when the cache is
    under-provisioned (Case 1) and ``x = m`` otherwise (Case 2).  The
    case split needs the folded constant ``k``; an adversary who cannot
    compute it can recover the same behaviour empirically with
    :class:`AdaptiveProbingAdversary`.
    """

    name = "adversarial"

    def __init__(
        self,
        public: SystemParameters,
        k: Optional[float] = None,
        k_prime: float = 0.0,
    ) -> None:
        super().__init__(public)
        self._x = optimal_query_count(public, k=k, k_prime=k_prime)

    @property
    def x(self) -> int:
        """The planned number of queried keys."""
        return self._x

    def distribution(self) -> AdversarialDistribution:
        return AdversarialDistribution(self._public.m, self._x)


@register_component(
    "adversary", "subset-flood", example=lambda ctx: {"x": ctx.params.c + 1}
)
class FixedSubsetFlood(Adversary):
    """Query a fixed prefix of ``x`` keys uniformly (no optimisation).

    The raw ingredient of Figures 3 and 5: the experiments sweep ``x``
    explicitly rather than letting the adversary plan.
    """

    name = "subset-flood"

    def __init__(self, public: SystemParameters, x: int) -> None:
        super().__init__(public)
        if not 1 <= x <= public.m:
            raise ConfigurationError(f"need 1 <= x <= m={public.m}, got x={x}")
        self._x = x

    @property
    def x(self) -> int:
        """Number of keys flooded."""
        return self._x

    def distribution(self) -> AdversarialDistribution:
        return AdversarialDistribution(self._public.m, self._x)


@register_component("adversary", "uniform")
class UniformFlood(Adversary):
    """Query the entire key space uniformly.

    Figure 4's "uniform" pattern — a good-citizen baseline that is also
    the adversary's Case-2 optimum, which is exactly the paper's point:
    with a provisioned cache the best attack is indistinguishable from
    ordinary balanced traffic.
    """

    name = "uniform"

    def distribution(self) -> UniformDistribution:
        return UniformDistribution(self._public.m)


@register_component("adversary", "zipf")
class ZipfClient(Adversary):
    """Benign skewed traffic, Zipf(1.01) in Figure 4.

    Not an attack: included so experiments can show the same pipeline
    handling the workloads the front-end cache was actually deployed
    for (where it shines — the head of the Zipf fits in the cache).
    """

    name = "zipf"

    def __init__(self, public: SystemParameters, s: float = 1.01) -> None:
        super().__init__(public)
        self._s = s

    @property
    def s(self) -> float:
        """Zipf exponent."""
        return self._s

    def distribution(self) -> ZipfDistribution:
        return ZipfDistribution(self._public.m, self._s)


def _build_shard_flood(
    ctx, x: Optional[int] = None, shards: int = 2, target: int = 0,
    seed: Optional[int] = None,
):
    """Spec builder: default the layer hash seed to the scenario's own.

    In-scenario this models the worst case for a cache tree: an insider
    who learned the edge layer's hash seed and floods the keys of one
    shard.  ``x`` defaults to ``c + 1`` (one key past the cache, the
    Theorem-1 sweet spot scaled down to one shard)."""
    if x is None:
        x = ctx.params.c + 1
    return ShardTargetingAdversary(
        ctx.params, x=x, shards=shards, target=target,
        seed=ctx.seed if seed is None else seed,
    )


@register_component(
    "adversary",
    "shard-flood",
    example=lambda ctx: {"x": ctx.params.c + 1, "shards": 2},
    builder=_build_shard_flood,
)
class ShardTargetingAdversary(Adversary):
    """Flood keys that all hash to *one* edge cache shard.

    The DistCache threat model: a flat cache absorbs any ``x <= c``
    flood, but a partitioned cache layer only absorbs what each shard
    can hold — an adversary who knows (or guesses) the edge layer's
    hash concentrates its ``x`` keys on a single shard, overloading it
    while the other shards idle.  Independent per-layer hashes plus
    two-choice routing are exactly the defense: the same keys land on
    *different* shards of the next layer, so the hierarchy re-spreads
    the attack (``benchmarks/bench_tree.py`` measures the gain both
    ways).

    Key discovery scans ``0 .. m-1`` through the same
    :class:`~repro.cluster.hierarchy.LayeredPartitioner` edge layer a
    tree built from ``(seed, shards)`` uses — layer secrets depend only
    on the seed and layer index, so the reconstruction is exact.

    Parameters
    ----------
    public:
        Public system parameters (``m`` bounds the scan).
    x:
        Number of distinct keys to flood (the attack width).
    shards:
        Edge layer width of the targeted tree.
    target:
        Which edge shard to concentrate on.
    seed:
        The tree's layered-partitioner seed (the leaked secret).
    """

    name = "shard-flood"

    def __init__(
        self,
        public: SystemParameters,
        x: int,
        shards: int = 2,
        target: int = 0,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__(public)
        if not 1 <= x <= public.m:
            raise ConfigurationError(f"need 1 <= x <= m={public.m}, got x={x}")
        if shards < 1:
            raise ConfigurationError(f"need at least one shard, got {shards}")
        if not 0 <= target < shards:
            raise ConfigurationError(
                f"target shard must be in [0, {shards}), got {target}"
            )
        from ..cluster.hierarchy import LayeredPartitioner

        partitioner = LayeredPartitioner((shards,), seed=seed)
        assignments = partitioner.assign_many(0, np.arange(public.m))
        candidates = np.flatnonzero(assignments == target)
        if candidates.size == 0:
            raise ConfigurationError(
                f"no key in [0, {public.m}) hashes to shard {target}"
            )
        self._x = int(min(x, candidates.size))
        self._target = target
        self._shards = shards
        self._keys = candidates[: self._x]

    @property
    def x(self) -> int:
        """Number of keys flooded (clamped to the shard's key count)."""
        return self._x

    @property
    def target(self) -> int:
        """The edge shard under attack."""
        return self._target

    @property
    def keys(self) -> np.ndarray:
        """The flooded keys (all hashing to the target shard)."""
        return self._keys.copy()

    def distribution(self) -> KeySetDistribution:
        # client_id=1 tags every flooded key with the attacker's
        # ground-truth identity for the attribution engine — purely
        # key-derived, so traced and untraced runs stay bit-identical.
        return KeySetDistribution(self._public.m, self._keys, client_id=1)


def _build_adaptive(ctx, probes: int = 12, probe_trials: int = 3):
    """Spec builder: close the probing loop with a small Monte-Carlo
    simulator over the scenario's own system and seed, the same feedback
    the integration tests use.  ``probe_trials`` sizes each probe's
    campaign — probing cost is ``probes x probe_trials`` trials."""
    from ..sim.analytic import MonteCarloSimulator

    sim = MonteCarloSimulator(ctx.params, trials=probe_trials, seed=ctx.seed)

    def feedback(distribution: KeyDistribution) -> float:
        return sim.distribution_attack(distribution).worst_case

    return AdaptiveProbingAdversary(ctx.params, feedback, probes=probes)


@register_component(
    "adversary", "adaptive", example={"probes": 3}, builder=_build_adaptive
)
class AdaptiveProbingAdversary(Adversary):
    """Extension: find the best ``x`` empirically, without knowing ``k``.

    The paper's optimal strategy needs the folded constant ``k`` to pick
    between ``x = c + 1`` and ``x = m``.  A real attacker can instead
    *measure*: send probe floods with different ``x``, observe the
    damage (e.g. tail latency of responses), and keep the best.  Since
    the gain bound is monotone on either side of the case boundary, a
    coarse geometric sweep refined around the best probe converges to
    the planner's choice — which the integration tests verify.

    Parameters
    ----------
    public:
        Public system parameters.
    feedback:
        Callable mapping a candidate distribution to the observed attack
        gain (higher = better for the adversary).  In experiments this
        is a simulator; in the wild it would be latency probing.
    probes:
        Number of geometric sweep points (>= 2).
    """

    name = "adaptive"

    def __init__(
        self,
        public: SystemParameters,
        feedback: Callable[[KeyDistribution], float],
        probes: int = 12,
    ) -> None:
        super().__init__(public)
        if probes < 2:
            raise ConfigurationError(f"need at least 2 probes, got {probes}")
        self._feedback = feedback
        self._probes = probes
        self._history: List[Tuple[int, float]] = []
        self._best_x: Optional[int] = None

    @property
    def history(self) -> List[Tuple[int, float]]:
        """``(x, observed_gain)`` pairs from the probing phase."""
        return list(self._history)

    def probe(self) -> int:
        """Run the probing phase; returns and caches the best ``x``."""
        lo = min(self._public.c + 1, self._public.m)
        hi = self._public.m
        grid = np.unique(
            np.clip(np.round(np.geomspace(lo, hi, num=self._probes)).astype(int), lo, hi)
        )
        best_x, best_gain = lo, -np.inf
        for x in grid:
            gain = self._measure(int(x))
            if gain > best_gain:
                best_x, best_gain = int(x), gain
        # Local refinement: one more pass halfway to each neighbour.
        refinements = {max(lo, best_x // 2), min(hi, best_x * 2), min(hi, best_x + 1)}
        for x in refinements:
            if all(x != seen for seen, _ in self._history):
                gain = self._measure(int(x))
                if gain > best_gain:
                    best_x, best_gain = int(x), gain
        self._best_x = best_x
        return best_x

    def _measure(self, x: int) -> float:
        gain = float(self._feedback(AdversarialDistribution(self._public.m, x)))
        self._history.append((x, gain))
        return gain

    def distribution(self) -> AdversarialDistribution:
        if self._best_x is None:
            self.probe()
        return AdversarialDistribution(self._public.m, self._best_x)
