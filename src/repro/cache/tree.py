"""Multi-layer cache hierarchy (DistCache-style cache tree).

The paper analyses one front-end cache over replicated backends;
DistCache (Liu et al., NSDI'19; PAPERS.md) generalises to a *hierarchy*:
a layer of edge cache shards, an aggregate layer behind it, backends
last.  :class:`CacheTree` composes existing :class:`~repro.cache.base.
Cache` policies into such a hierarchy behind the same ``access(key)``
seam, so both simulation engines, the metrics exporter and the monitor
see a tree exactly where they saw a flat cache:

- each layer partitions keys across its shards with an *independent*
  keyed hash (:class:`~repro.cluster.hierarchy.LayeredPartitioner`);
- a :class:`~repro.cluster.hierarchy.LayerSelection` decides the probe
  order across layers — ``cascade`` is the classic look-through
  hierarchy, ``two-choice`` is DistCache's power-of-two-choices
  balancing between each key's per-layer candidates;
- a miss in a probed shard admits the key there (path admission), so
  every shard runs its own replacement policy unmodified.

A **degenerate** tree (one layer, one shard) performs exactly one
``shard.access(key)`` per request, consumes zero RNG and delegates its
metrics export to the shard — bit-identical to running the shard cache
flat, which ``tests/test_tree_differential.py`` pins.

A non-degenerate tree is never batched, even when every shard is
static: its probe accounting and hit attribution are per layer, so the
event kernel replays it with one ``access`` per request, recording
``last_hit`` per hit, and never calls a shard's ``access_many``.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from ..cluster.hierarchy import (
    CascadeLayerSelection,
    LayeredPartitioner,
    LayerSelection,
)
from ..exceptions import CacheError
from ..scenario.registry import register_component
from .base import Cache

__all__ = ["CacheTree"]


def _build_tree(ctx, layers=None, selection="cascade", seed=None):
    """Spec builder: compose a tree from per-layer shard cache specs.

    ``{kind: tree, layers: [{shards: 2, cache: lru}, {shards: 1,
    cache: {kind: slru, ...}}], selection: two-choice}`` — every shard
    cache resolves through the cache registry (capacity defaults to the
    scenario's ``c`` like any other cache), the layer selection through
    the ``layer-selection`` namespace, and the layered partitioner is
    seeded from the scenario seed unless overridden.
    """
    from ..exceptions import ScenarioValidationError
    from ..scenario.build import build_component
    from ..scenario.spec import ComponentSpec

    if not layers:
        raise ScenarioValidationError(
            "cache.layers: a tree needs at least one layer, e.g. "
            "[{shards: 2, cache: lru}]",
            path="cache.layers",
        )
    built_layers: List[Tuple[Cache, ...]] = []
    for i, layer in enumerate(layers):
        where = f"cache.layers[{i}]"
        if not isinstance(layer, dict):
            raise ScenarioValidationError(
                f"{where}: each layer is a mapping with 'shards' and "
                f"'cache', got {layer!r}",
                path=where,
            )
        unknown = set(layer) - {"shards", "cache"}
        if unknown:
            raise ScenarioValidationError(
                f"{where}: unknown keys {sorted(unknown)}", path=where
            )
        shards = layer.get("shards", 1)
        if not isinstance(shards, int) or shards < 1:
            raise ScenarioValidationError(
                f"{where}.shards: need a positive integer, got {shards!r}",
                path=f"{where}.shards",
            )
        cache_spec = ComponentSpec.from_data(
            layer.get("cache", "lru"), f"{where}.cache"
        )
        built_layers.append(
            tuple(
                build_component("cache", cache_spec, ctx, path=f"{where}.cache")
                for _ in range(shards)
            )
        )
    selection_spec = ComponentSpec.from_data(selection, "cache.selection")
    layer_selection = build_component(
        "layer-selection", selection_spec, ctx, path="cache.selection"
    )
    partitioner = LayeredPartitioner(
        tuple(len(layer) for layer in built_layers),
        seed=ctx.seed if seed is None else seed,
    )
    return CacheTree(
        built_layers, partitioner=partitioner, selection=layer_selection
    )


@register_component(
    "cache",
    "tree",
    example=lambda ctx: {
        "layers": [
            {"shards": 2, "cache": "lru"},
            {"shards": 1, "cache": "lru"},
        ],
        "selection": "two-choice",
    },
    builder=_build_tree,
)
class CacheTree(Cache):
    """A hierarchy of cache shards behind the flat ``Cache`` interface.

    Parameters
    ----------
    layers:
        Per-layer shard caches, edge layer first; every entry is a
        sequence of independent :class:`~repro.cache.base.Cache`
        instances (one per shard).
    partitioner:
        Per-layer shard assignment; defaults to a
        :class:`~repro.cluster.hierarchy.LayeredPartitioner` over the
        layer widths with the default seed.
    selection:
        Probe-order policy across layers; defaults to
        :class:`~repro.cluster.hierarchy.CascadeLayerSelection`.
    """

    POLICY = "tree"

    #: Marks a cache tree: the event kernel attributes each hit to the
    #: (layer, shard) in :attr:`last_hit`.
    HIERARCHICAL = True

    def __init__(
        self,
        layers: Sequence[Sequence[Cache]],
        partitioner: Optional[LayeredPartitioner] = None,
        selection: Optional[LayerSelection] = None,
    ) -> None:
        if not layers or any(not layer for layer in layers):
            raise CacheError("a cache tree needs >= 1 shard in every layer")
        self._layers: Tuple[Tuple[Cache, ...], ...] = tuple(
            tuple(layer) for layer in layers
        )
        for layer in self._layers:
            for shard in layer:
                if not isinstance(shard, Cache):
                    raise CacheError(
                        f"tree shards must be Cache instances, got {shard!r}"
                    )
        widths = tuple(len(layer) for layer in self._layers)
        if partitioner is None:
            partitioner = LayeredPartitioner(widths)
        if partitioner.widths != widths:
            raise CacheError(
                f"partitioner widths {partitioner.widths} != layer widths "
                f"{widths}"
            )
        super().__init__(
            sum(shard.capacity for layer in self._layers for shard in layer)
        )
        self._partitioner = partitioner
        self._selection = (
            selection if selection is not None else CascadeLayerSelection()
        )
        self._entered: List[int] = [0] * len(widths)
        self._layer_hits: List[int] = [0] * len(widths)
        self._shard_served: List[List[int]] = [[0] * w for w in widths]
        #: ``(layer, shard)`` that served the most recent hit, ``None``
        #: after a full miss — the simulator reads this to attribute
        #: per-layer monitor telemetry without a second lookup.
        self.last_hit: Optional[Tuple[int, int]] = None
        self._published_layers = [0] * len(widths)
        self._published_entered = [0] * len(widths)

    # ------------------------------------------------------------------
    # structure
    @property
    def widths(self) -> Tuple[int, ...]:
        """Shard count per layer, edge layer first."""
        return self._partitioner.widths

    @property
    def depth(self) -> int:
        """Number of layers."""
        return len(self._layers)

    @property
    def degenerate(self) -> bool:
        """One layer, one shard: behaviourally identical to flat."""
        return self.widths == (1,)

    @property
    def partitioner(self) -> LayeredPartitioner:
        """The per-layer shard assignment."""
        return self._partitioner

    @property
    def selection(self) -> LayerSelection:
        """The inter-layer probe-order policy."""
        return self._selection

    @property
    def layers(self) -> Tuple[Tuple[Cache, ...], ...]:
        """The shard caches, ``layers[layer][shard]``."""
        return self._layers

    # ------------------------------------------------------------------
    # telemetry
    @property
    def entered(self) -> Tuple[int, ...]:
        """Requests that probed each layer (conservation anchor)."""
        return tuple(self._entered)

    @property
    def layer_hits(self) -> Tuple[int, ...]:
        """Hits served by each layer."""
        return tuple(self._layer_hits)

    @property
    def shard_served(self) -> Tuple[Tuple[int, ...], ...]:
        """Hits served per shard, ``shard_served[layer][shard]``."""
        return tuple(tuple(counts) for counts in self._shard_served)

    # ------------------------------------------------------------------
    # the Cache seam
    def access(self, key: int) -> bool:
        """Probe the key's shard in each layer until one hits.

        Each probed shard runs its own ``access`` — a probe miss admits
        the key there (path admission) before the next layer is tried.
        The degenerate tree performs exactly one shard access, making it
        bit-identical to the flat cache it wraps.
        """
        key = int(key)
        shards = self._partitioner.assign(key)
        order = self._selection.probe_order(shards, self._shard_served)
        for layer in order:
            shard = shards[layer]
            self._entered[layer] += 1
            if self._layers[layer][shard].access(key):
                self.stats.hits += 1
                self._layer_hits[layer] += 1
                self._shard_served[layer][shard] += 1
                self.last_hit = (layer, shard)
                return True
        self.stats.misses += 1
        self.last_hit = None
        return False

    def __len__(self) -> int:
        return sum(len(shard) for layer in self._layers for shard in layer)

    def keys(self) -> Iterable[int]:
        seen = set()
        for layer in self._layers:
            for shard in layer:
                for key in shard.keys():
                    if key not in seen:
                        seen.add(key)
                        yield key

    def _contains(self, key: int) -> bool:
        shards = self._partitioner.assign(int(key))
        return any(
            int(key) in self._layers[layer][shard]
            for layer, shard in enumerate(shards)
        )

    def _on_hit(self, key: int) -> None:  # pragma: no cover - access overridden
        raise AssertionError("CacheTree.access() never dispatches here")

    def _admit(self, key: int) -> None:  # pragma: no cover - access overridden
        raise AssertionError("CacheTree.access() never dispatches here")

    # ------------------------------------------------------------------
    # observability
    def publish_metrics(self, metrics) -> None:
        """Export counters; degenerate trees delegate to their shard.

        Delegation keeps the degenerate tree's metrics export *byte*
        identical to the flat path (same ``policy=`` label, same
        counters).  Non-degenerate trees publish tree-level hit/miss
        plus per-layer probe and hit counters, and let every shard
        publish its own policy-labelled counters.
        """
        if self.degenerate:
            self._layers[0][0].publish_metrics(metrics)
            return
        from ..obs.metrics import as_registry

        registry = as_registry(metrics)
        stats = self.stats
        # Aggregate shard admissions into the tree-level totals so the
        # base delta publisher exports them under policy="tree".
        stats.insertions = sum(
            shard.stats.insertions for layer in self._layers for shard in layer
        )
        stats.evictions = sum(
            shard.stats.evictions for layer in self._layers for shard in layer
        )
        super().publish_metrics(metrics)
        for layer, width in enumerate(self.widths):
            hits_now = self._layer_hits[layer]
            entered_now = self._entered[layer]
            hits_delta = hits_now - self._published_layers[layer]
            entered_delta = entered_now - self._published_entered[layer]
            if hits_delta:
                registry.counter(
                    "tree_layer_hits_total", layer=str(layer)
                ).inc(hits_delta)
            if entered_delta:
                registry.counter(
                    "tree_layer_entered_total", layer=str(layer)
                ).inc(entered_delta)
            self._published_layers[layer] = hits_now
            self._published_entered[layer] = entered_now
            registry.gauge("tree_layer_shards", layer=str(layer)).set(width)
