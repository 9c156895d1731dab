"""Workload mixtures: attacks riding on benign traffic, flash crowds.

Real incidents are never pure: attack queries arrive *on top of* a
benign base load, and the operationally hard question is telling a DDoS
(adversarial key spread) from a flash crowd (legitimate popularity
spike).  :class:`MixtureDistribution` composes any component laws with
weights, giving the experiments both phenomena:

- ``Mixture[0.8 * Zipf, 0.2 * Adversarial]`` — a stealthy attack hiding
  in benign skew;
- ``Mixture[0.9 * Zipf, 0.1 * PointMass(hot)]`` — a flash crowd on one
  item (which the front-end cache absorbs entirely — the paper's
  architecture handles flash crowds for free).

The online monitor's ``entropy-flat`` alert (:mod:`repro.obs.alerts`)
classifies these; its batch reference is ``tests/detection_oracle.py``.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..exceptions import DistributionError
from ..rng import as_generator
from ..scenario.registry import register_component
from .distributions import KeyDistribution

__all__ = ["MixtureDistribution"]


def _build_mixture(ctx, components=()):
    """Spec builder: each component is ``{weight: w, kind: ..., params}``
    with the nested distribution resolved through the workload registry.

    >>> # components: [{weight: 0.9, kind: zipf}, {weight: 0.1,
    >>> #               kind: adversarial, x: 201}]
    """
    from ..exceptions import ScenarioValidationError
    from ..scenario.build import build_component
    from ..scenario.spec import ComponentSpec

    pairs = []
    for i, item in enumerate(components):
        where = f"workload.components[{i}]"
        if not isinstance(item, dict) or "weight" not in item:
            raise ScenarioValidationError(
                f"{where}: expected a mapping with 'weight' and 'kind' "
                f"keys, got {item!r}",
                path=where,
            )
        item = dict(item)
        weight = item.pop("weight")
        nested = build_component(
            "workload", ComponentSpec.from_data(item, where), ctx, path=where
        )
        pairs.append((weight, nested))
    return MixtureDistribution(pairs)


_MIXTURE_EXAMPLE = {
    "components": [
        {"weight": 0.9, "kind": "zipf"},
        {"weight": 0.1, "kind": "uniform"},
    ]
}


@register_component(
    "workload", "mixture", example=_MIXTURE_EXAMPLE, builder=_build_mixture
)
class MixtureDistribution(KeyDistribution):
    """Convex combination of component key distributions.

    Parameters
    ----------
    components:
        ``(weight, distribution)`` pairs over a common key space;
        weights must be positive and are normalised to sum to 1.
    """

    name = "mixture"

    def __init__(self, components: Sequence[Tuple[float, KeyDistribution]]) -> None:
        if not components:
            raise DistributionError("need at least one component")
        m = components[0][1].m
        weights: List[float] = []
        dists: List[KeyDistribution] = []
        for weight, dist in components:
            if weight <= 0:
                raise DistributionError(f"weights must be positive, got {weight}")
            if dist.m != m:
                raise DistributionError(
                    f"components span different key spaces ({dist.m} vs {m})"
                )
            weights.append(float(weight))
            dists.append(dist)
        super().__init__(m)
        total = sum(weights)
        self._weights = np.asarray([w / total for w in weights])
        self._components = tuple(dists)

    @property
    def weights(self) -> np.ndarray:
        """Normalised component weights (copy)."""
        return self._weights.copy()

    @property
    def components(self) -> Tuple[KeyDistribution, ...]:
        """The component distributions."""
        return self._components

    def client_map(self):
        """Element-wise max of the component maps (attacker ids win).

        Adversarial components claim their keys with positive client
        ids; a key shared with the benign base keeps the attacker id —
        the pessimistic convention an attribution ground truth wants.
        ``None`` when no component declares clients.
        """
        merged = None
        for dist in self._components:
            ids = dist.client_map()
            if ids is None:
                continue
            merged = ids.copy() if merged is None else np.maximum(merged, ids)
        return merged

    def probabilities(self) -> np.ndarray:
        probs = np.zeros(self._m)
        for weight, dist in zip(self._weights, self._components):
            probs += weight * dist.probabilities()
        return probs

    def sample(self, size, rng=None):
        """Hierarchical sampling: pick a component per query, then a key.

        Delegating to component samplers preserves any special ordering
        semantics they have (e.g. a cyclic scan component stays cyclic
        within its share of the stream).
        """
        if size < 0:
            raise DistributionError(f"size must be non-negative, got {size}")
        gen = as_generator(rng, "mixture")
        if size == 0:
            return np.empty(0, dtype=np.int64)
        assignment = gen.choice(len(self._components), size=size, p=self._weights)
        out = np.empty(size, dtype=np.int64)
        for index, dist in enumerate(self._components):
            mask = assignment == index
            count = int(mask.sum())
            if count:
                out[mask] = dist.sample(count, rng=gen)
        return out

    def attack_fraction(self, attack_index: int) -> float:
        """Weight of the component at ``attack_index`` (convenience for
        experiments that sweep the attack share)."""
        if not 0 <= attack_index < len(self._components):
            raise DistributionError(
                f"attack_index must be in [0, {len(self._components)}), got {attack_index}"
            )
        return float(self._weights[attack_index])
