"""Replica-selection policies: which group member serves a key's queries.

The paper's assumption 2 allows any fixed rule ("random selection or in
a round-robin fashion") for choosing the serving node inside a replica
group; its *analysis* models the strongest sensible rule — pinning each
key to the least-loaded group member, i.e. the power of ``d`` choices.
This module implements that rule plus the alternatives, all behind one
interface, so the ablation benches can quantify how much the rule
matters (answer: least-loaded pinning balances best in the heavy-load
regime, per-query spreading is close behind, random/primary pinning are
markedly worse — see ``tests/test_table_ablation_selection.py``).

A policy converts a ``(keys x d)`` replica-group matrix plus per-key
steady-state rates into a per-node load vector.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Union

import numpy as np

from ..ballsbins.allocation import greedy_loads
from ..exceptions import ConfigurationError
from ..rng import as_generator
from ..scenario.registry import register_component

__all__ = [
    "SelectionPolicy",
    "LeastLoadedKeyPinning",
    "LeastUtilizedKeyPinning",
    "RandomKeyPinning",
    "PrimaryKeyPinning",
    "RoundRobinSpreading",
    "PerQueryRandomSpreading",
    "make_selection_policy",
]

RngLike = Union[None, int, np.random.Generator]


def _validate(groups: np.ndarray, rates: np.ndarray, n: int) -> tuple:
    groups = np.asarray(groups, dtype=np.int64)
    rates = np.asarray(rates, dtype=float)
    if groups.ndim != 2 or groups.shape[1] == 0:
        raise ConfigurationError("groups must be a (keys, d) matrix with d >= 1")
    if rates.shape != (groups.shape[0],):
        raise ConfigurationError(
            f"rates must have one entry per key, got {rates.shape} for {groups.shape[0]} keys"
        )
    if np.any(rates < 0):
        raise ConfigurationError("rates must be non-negative")
    if groups.size and (groups.min() < 0 or groups.max() >= n):
        raise ConfigurationError("group entries must be node ids in [0, n)")
    return groups, rates


class SelectionPolicy(ABC):
    """Turns replica groups + key rates into steady-state node loads."""

    #: Short name used in reports and the CLI.
    name: str = "abstract"

    @abstractmethod
    def node_loads(
        self,
        groups: np.ndarray,
        rates: np.ndarray,
        n: int,
        rng: RngLike = None,
    ) -> np.ndarray:
        """Return the length-``n`` per-node load vector (queries/sec).

        Parameters
        ----------
        groups:
            ``(keys, d)`` matrix of replica node ids.
        rates:
            Per-key steady-state query rate.
        n:
            Number of nodes (loads vector length).
        rng:
            Randomness for stochastic policies; ignored by
            deterministic ones.
        """


@register_component("selection", "least-loaded")
class LeastLoadedKeyPinning(SelectionPolicy):
    """Pin each key to its currently least-loaded replica (theory model).

    Processing keys one by one and placing each on the least-loaded
    group member is exactly the greedy d-choice process the
    Berenbrink et al. bound covers.  Load is measured in accumulated
    query rate, so the policy also handles unequal key rates sensibly.
    """

    name = "least-loaded"

    def node_loads(self, groups, rates, n, rng=None):
        """Greedy rate-weighted d-choice placement (deterministic)."""
        groups, rates = _validate(groups, rates, n)
        return greedy_loads(groups, rates, n)


@register_component("selection", "random-pin")
class RandomKeyPinning(SelectionPolicy):
    """Pin each key to a uniformly random replica.

    Ignores load information, so the placement degenerates to the
    one-choice process — the weakest rule, included as the pessimistic
    ablation.
    """

    name = "random-pin"

    def node_loads(self, groups, rates, n, rng=None):
        groups, rates = _validate(groups, rates, n)
        gen = as_generator(rng, "random-pin")
        loads = np.zeros(n, dtype=float)
        if groups.shape[0] == 0:
            return loads
        picks = groups[np.arange(groups.shape[0]), gen.integers(0, groups.shape[1], size=groups.shape[0])]
        np.add.at(loads, picks, rates)
        return loads


@register_component("selection", "primary")
class PrimaryKeyPinning(SelectionPolicy):
    """Pin each key to its first (primary) replica.

    Deterministic primary/backup serving; since groups are random this
    is statistically identical to :class:`RandomKeyPinning` but without
    consuming randomness, which makes paired comparisons cleaner.
    """

    name = "primary"

    def node_loads(self, groups, rates, n, rng=None):
        groups, rates = _validate(groups, rates, n)
        loads = np.zeros(n, dtype=float)
        if groups.shape[0]:
            np.add.at(loads, groups[:, 0], rates)
        return loads


@register_component("selection", "round-robin")
class RoundRobinSpreading(SelectionPolicy):
    """Spread each key's queries evenly over all ``d`` replicas.

    The steady-state effect of per-query round-robin: every replica
    carries ``rate / d``.  Far better balanced than random pinning, but
    — perhaps surprisingly — *not* better than least-loaded pinning in
    the heavily loaded regime: splitting inherits the fluctuation in how
    many replica groups each node joined, while least-loaded placement
    actively corrects it (the selection ablation bench quantifies this).
    """

    name = "round-robin"

    def node_loads(self, groups, rates, n, rng=None):
        groups, rates = _validate(groups, rates, n)
        loads = np.zeros(n, dtype=float)
        if groups.shape[0]:
            d = groups.shape[1]
            np.add.at(loads, groups.ravel(), np.repeat(rates / d, d))
        return loads


@register_component("selection", "per-query-random")
class PerQueryRandomSpreading(SelectionPolicy):
    """Route each individual query to a random replica.

    In expectation identical to round-robin; this implementation samples
    the actual multinomial split of a finite query batch so the
    stochastic fluctuation is visible.  ``queries_per_unit_rate``
    controls the batch granularity (higher = closer to the mean).
    """

    name = "per-query-random"

    def __init__(self, queries_per_unit_rate: float = 1.0) -> None:
        if queries_per_unit_rate <= 0:
            raise ConfigurationError(
                f"queries_per_unit_rate must be positive, got {queries_per_unit_rate}"
            )
        self.queries_per_unit_rate = queries_per_unit_rate

    def node_loads(self, groups, rates, n, rng=None):
        groups, rates = _validate(groups, rates, n)
        gen = as_generator(rng, "per-query-random")
        loads = np.zeros(n, dtype=float)
        if groups.shape[0] == 0:
            return loads
        d = groups.shape[1]
        counts = np.maximum(
            1, np.round(rates * self.queries_per_unit_rate).astype(np.int64)
        )
        for row, rate, count in zip(groups.tolist(), rates.tolist(), counts.tolist()):
            if rate == 0:
                continue
            split = gen.multinomial(count, [1.0 / d] * d)
            per_query_rate = rate / count
            for node, queries in zip(row, split.tolist()):
                loads[node] += queries * per_query_rate
        return loads


def _build_least_utilized(ctx, capacities=None):
    """Spec builder: default to uniform capacities over the system's
    ``n`` nodes (recovering least-loaded), so heterogeneous clusters are
    opt-in via an explicit ``capacities`` list."""
    if capacities is None:
        capacities = np.ones(ctx.params.n)
    return LeastUtilizedKeyPinning(capacities)


@register_component(
    "selection", "least-utilized", builder=_build_least_utilized
)
class LeastUtilizedKeyPinning(SelectionPolicy):
    """Pin each key to the replica with the lowest load/capacity ratio.

    The capacity-aware variant of the theory model for heterogeneous
    clusters: big nodes absorb proportionally more keys, so the cluster
    is no longer limited by its weakest member carrying an average share
    — see :mod:`repro.core.heterogeneous` for the adjusted bound.  With
    uniform capacities this is exactly :class:`LeastLoadedKeyPinning`.
    """

    name = "least-utilized"

    def __init__(self, capacities) -> None:
        capacities = np.asarray(capacities, dtype=float)
        if capacities.ndim != 1 or capacities.size == 0:
            raise ConfigurationError("capacities must be a non-empty 1-D vector")
        if np.any(capacities <= 0):
            raise ConfigurationError("capacities must be positive")
        self._capacities = capacities

    @property
    def capacities(self) -> np.ndarray:
        """Per-node capacities the policy weighs by (copy)."""
        return self._capacities.copy()

    def node_loads(self, groups, rates, n, rng=None):
        """Greedy utilization-weighted d-choice placement."""
        groups, rates = _validate(groups, rates, n)
        if self._capacities.size != n:
            raise ConfigurationError(
                f"policy built for {self._capacities.size} nodes, asked about {n}"
            )
        loads = [0.0] * n
        capacities = self._capacities.tolist()
        for row, rate in zip(groups.tolist(), rates.tolist()):
            best = row[0]
            best_util = loads[best] / capacities[best]
            for cand in row[1:]:
                cand_util = loads[cand] / capacities[cand]
                if cand_util < best_util:
                    best = cand
                    best_util = cand_util
            loads[best] += rate
        return np.asarray(loads, dtype=float)


def make_selection_policy(name: str, **kwargs) -> SelectionPolicy:
    """Construct a selection policy by its :attr:`~SelectionPolicy.name`.

    A thin shim over the scenario component registry
    (:mod:`repro.scenario.registry`): every policy class registers
    itself above, so this factory and scenario specs always agree on
    the available names.

    >>> make_selection_policy("least-loaded").name
    'least-loaded'
    """
    from ..scenario.registry import REGISTRY

    names = REGISTRY.names("selection")
    if name not in names:
        raise ConfigurationError(
            f"unknown selection policy {name!r}; choose from {sorted(names)}"
        ) from None
    return REGISTRY.get("selection", name).factory(**kwargs)
