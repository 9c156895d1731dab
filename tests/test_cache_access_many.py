"""The batching contract of ``Cache.access_many``.

``cache.access_many(keys)`` must equal ``[cache.access(k) for k in keys]``
in the hit mask, in every :class:`~repro.cache.base.CacheStats` counter
and in the resident order it leaves behind.  The event kernel reaches
every flat cache through it, so each registered policy is checked here
against a twin fed one key at a time, over batches split at random
points (a batch may start from a warm cache).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.base import Cache
from repro.cache.lru import LRUCache
from repro.cache.perfect import PerfectCache
from repro.core.notation import SystemParameters
from repro.scenario.build import BuildContext, build_component, discover
from repro.scenario.registry import REGISTRY
from repro.scenario.spec import ComponentSpec

discover()

#: Tree specs: a cascade, a two-choice tree over perfect shards, and the
#: degenerate one-shard tree.
TREES = {
    "tree-cascade": {
        "kind": "tree",
        "layers": [{"shards": 2, "cache": "lru"}, {"shards": 1, "cache": "fifo"}],
    },
    "tree-perfect": {
        "kind": "tree",
        "layers": [{"shards": 2, "cache": "perfect"}, {"shards": 1, "cache": "lru"}],
        "selection": "two-choice",
    },
    "tree-degenerate": {"kind": "tree", "layers": [{"shards": 1, "cache": "lru"}]},
}

SPECS = {name: name for name in REGISTRY.names("cache") if name != "tree"}
SPECS.update(TREES)

KEYSPACE = 24


def _build(name, capacity, seed):
    params = SystemParameters(n=4, m=64, c=capacity, d=2, rate=1.0)
    spec = ComponentSpec.from_data(SPECS[name], "cache")
    return build_component("cache", spec, BuildContext(params=params, seed=seed))


def _state(cache):
    return cache.stats, list(cache.keys())


def test_every_registered_kind_is_covered():
    kinds = {spec if isinstance(spec, str) else spec["kind"] for spec in SPECS.values()}
    assert kinds == set(REGISTRY.names("cache"))


@pytest.mark.parametrize("name", sorted(SPECS))
@given(
    capacity=st.sampled_from([0, 1, 2, 5]),
    keys=st.lists(st.integers(min_value=0, max_value=KEYSPACE - 1), max_size=200),
    cuts=st.lists(st.integers(min_value=0, max_value=200), max_size=3),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=40, deadline=None)
def test_access_many_equals_per_key_access(name, capacity, keys, cuts, seed):
    batched, single = _build(name, capacity, seed), _build(name, capacity, seed)
    stream = np.array(keys, dtype=np.int64)
    bounds = sorted({0, len(keys), *(min(c, len(keys)) for c in cuts)})
    for lo, hi in zip(bounds, bounds[1:]):
        mask = batched.access_many(stream[lo:hi])
        assert mask.dtype == bool and mask.shape == (hi - lo,)
        expected = [single.access(k) for k in stream[lo:hi].tolist()]
        assert mask.tolist() == expected
        assert _state(batched) == _state(single)
    assert batched.access_many(stream[:0]).shape == (0,)
    assert _state(batched) == _state(single)


def test_lru_batch_evicts_in_recency_order():
    cache = LRUCache(3)
    mask = cache.access_many(np.array([1, 2, 3, 1, 4, 2, 5]))
    assert mask.tolist() == [False, False, False, True, False, False, False]
    assert list(cache.keys()) == [4, 2, 5]
    stats = cache.stats
    assert (stats.hits, stats.misses, stats.insertions, stats.evictions) == (1, 6, 6, 3)


@pytest.mark.parametrize(
    "base, hook",
    [(LRUCache, hook) for hook in ("access", "_on_hit", "_admit", "_insert")]
    + [(PerfectCache, hook) for hook in ("access", "_on_hit", "_admit")],
)
def test_overriding_the_per_key_path_disables_the_batched_body(base, hook):
    """A subclass that changes one step of ``access`` without its own
    ``access_many`` gets the per-key body back, so it sees every key."""
    seen = []

    def spy(self, *args):
        seen.append(hook)
        return getattr(base, hook)(self, *args)

    sub = type("Spied", (base,), {hook: spy})
    assert sub.access_many is Cache.access_many
    cache = sub(2)
    cache.access_many(np.array([0, 1, 0, 7, 9, 0, 1]))
    assert seen
    assert base.access_many is not Cache.access_many
