"""Layered partitioning and inter-layer routing for cache hierarchies.

DistCache (Liu et al., NSDI'19; see PAPERS.md) generalises a single
front-end cache to a *hierarchy*: edge cache shards in one layer, an
aggregate layer behind them, backends last.  Its load-balance theorem
rests on two mechanisms, both of which live here:

- **independent per-layer hash partitioning** — every layer assigns a
  key to one of its shards with its *own* keyed hash, so a key's shard
  in layer 0 says nothing about its shard in layer 1
  (:class:`LayeredPartitioner`);
- **power-of-two-choices routing between layers** — a query for a
  cached key may be served by either of its two per-layer candidates,
  and picking the less-loaded one yields the classic
  ``log log / log 2`` max-load bound across each layer's shards
  (:class:`TwoChoiceLayerSelection`).

These are deliberately *not* the backend :class:`~repro.cluster.
partitioner.Partitioner` / :class:`~repro.cluster.selection.
SelectionPolicy` seams: those map keys to the ``n`` replicated backend
nodes below the whole hierarchy, while these map keys to cache *shards
within a layer* (replication factor 1 per layer) and pick *which layer*
answers.  Layer selections register in the ``layer-selection`` scenario
namespace so tree specs compose them by name.
"""

from __future__ import annotations

import hashlib
from abc import ABC, abstractmethod
from typing import Optional, Sequence, Tuple

import numpy as np

from ..exceptions import ConfigurationError
from ..rng import DEFAULT_SEED
from ..scenario.registry import register_component
from .partitioner import HashPartitioner

__all__ = [
    "LayeredPartitioner",
    "LayerSelection",
    "CascadeLayerSelection",
    "TwoChoiceLayerSelection",
    "make_layer_selection",
]


def _layer_secret(seed: int, layer: int) -> bytes:
    """Derive layer ``layer``'s private hash key from the tree seed.

    Depends only on ``(seed, layer)`` — not on the shard widths — so a
    shard-targeting adversary model can reconstruct the layer-0 mapping
    knowing just the seed and the edge width (the paper's "known
    partition" worst case), while distinct layers still get independent
    keyed hashes.
    """
    material = f"layered-partitioner-{seed}-{layer}".encode()
    return hashlib.blake2b(material, digest_size=16).digest()


class LayeredPartitioner:
    """Independent keyed-hash shard assignment per hierarchy layer.

    One :class:`~repro.cluster.partitioner.HashPartitioner` with
    ``d=1`` per layer, each keyed with a secret derived from
    ``(seed, layer)`` only.  ``assign(key)`` returns the key's shard in
    every layer at once; the per-layer marginals are uniform and the
    joint distribution factorises (pinned by the hypothesis
    independence tests in ``tests/test_tree_properties.py``).
    """

    def __init__(
        self, widths: Sequence[int], seed: Optional[int] = None
    ) -> None:
        widths = tuple(int(w) for w in widths)
        if not widths:
            raise ConfigurationError("need at least one layer of shards")
        if any(w < 1 for w in widths):
            raise ConfigurationError(
                f"every layer needs at least one shard, got widths={widths}"
            )
        if seed is None:
            seed = DEFAULT_SEED
        self._widths = widths
        self._seed = int(seed)
        self._layers = tuple(
            HashPartitioner(n=width, d=1, secret=_layer_secret(self._seed, i))
            for i, width in enumerate(widths)
        )

    @property
    def widths(self) -> Tuple[int, ...]:
        """Shard count per layer, edge layer first."""
        return self._widths

    @property
    def layers(self) -> int:
        """Number of layers."""
        return len(self._widths)

    @property
    def seed(self) -> int:
        """Seed the per-layer secrets derive from."""
        return self._seed

    def assign(self, key: int) -> Tuple[int, ...]:
        """Shard id of ``key`` in every layer, edge layer first."""
        return tuple(
            int(part.replica_group(key)[0]) for part in self._layers
        )

    def assign_many(self, layer: int, keys: Sequence[int]) -> np.ndarray:
        """Shard id of each of ``keys`` within ``layer``."""
        return self._layers[layer].replica_groups(keys)[:, 0]


class LayerSelection(ABC):
    """Probe-order policy across a cache tree's layers.

    Given the key's per-layer shard assignment, return the order in
    which layers are probed; the first probed layer holding the key
    serves it.  Implementations must be deterministic given the tree's
    observable state — inter-layer routing consumes **no** RNG, which
    is what keeps a degenerate (single-layer, single-shard) tree
    bit-identical to the flat simulator path.
    """

    NAME = "layer-selection"

    @abstractmethod
    def probe_order(
        self, shards: Tuple[int, ...], served: Sequence[Sequence[int]]
    ) -> Tuple[int, ...]:
        """Layer indices in probe order.

        Parameters
        ----------
        shards:
            The key's shard assignment per layer.
        served:
            Per-layer, per-shard cumulative hit counts — the load signal
            two-choice balancing reads.
        """

    def reset(self) -> None:
        """Clear any accumulated state (called between campaign trials)."""


@register_component("layer-selection", "cascade")
class CascadeLayerSelection(LayerSelection):
    """Probe layers strictly top-down: edge first, then deeper layers.

    The classic look-through hierarchy — no balancing between layers;
    deeper layers only see the misses of the layers above.
    """

    NAME = "cascade"

    def probe_order(
        self, shards: Tuple[int, ...], served: Sequence[Sequence[int]]
    ) -> Tuple[int, ...]:
        return tuple(range(len(shards)))


@register_component("layer-selection", "two-choice")
class TwoChoiceLayerSelection(LayerSelection):
    """Power-of-two-choices between a key's per-layer candidates.

    Every key has one candidate shard per layer (independent hashes);
    probing the layer whose candidate has served the fewest hits first
    is exactly the "choose the less-loaded of two" rule DistCache
    analyses for a two-layer hierarchy — hot keys' hits split across
    layers instead of piling onto one shard.  Ties break toward the
    upper (edge) layer, so a cold tree degenerates to the cascade
    order.  Deterministic: the order is a pure function of the served
    counters, no RNG.
    """

    NAME = "two-choice"

    def probe_order(
        self, shards: Tuple[int, ...], served: Sequence[Sequence[int]]
    ) -> Tuple[int, ...]:
        return tuple(
            sorted(
                range(len(shards)),
                key=lambda layer: (served[layer][shards[layer]], layer),
            )
        )


def make_layer_selection(name: str) -> LayerSelection:
    """Build a layer selection by registry name (``cascade``, ...)."""
    from ..scenario.registry import REGISTRY

    entry = REGISTRY.get("layer-selection", name)
    return entry.factory()
