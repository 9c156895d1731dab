"""Differential suite: cache trees in the event kernel vs the oracle.

A one-layer, one-shard :class:`~repro.cache.tree.CacheTree` wraps a
single cache instance; it promises to be a *bit-identical* stand-in for
running that cache flat — same :class:`EventSimResult` floats and
arrays, same RNG stream consumption, same metrics export, same monitor
telemetry — across the routing x cache-policy grid.  Here the tree runs
through the event kernel and the flat cache through the per-event
reference scheduler (``tests/event_oracle.py``), so one comparison pins
both the degeneracy contract and the kernel's exactness.  That contract
is what lets tree scenarios reuse every flat-path golden and bound
without a tolerance.

Layered trees run through the kernel against the oracle too.  The suite
also pins the batching seam: a tree of perfect caches is per-shard
static, but its probe accounting and hit attribution are per layer, so
the kernel replays it one ``access`` per request and never reaches a
shard's vectorized ``PerfectCache.access_many`` — that would precompute
hits against the union resident set.
"""

import functools

import numpy as np
import pytest

from event_oracle import ColumnCapture, assert_columns_identical, run_oracle
from repro.cache import CacheTree, PerfectCache, make_cache
from repro.cluster.hierarchy import (
    LayeredPartitioner,
    TwoChoiceLayerSelection,
)
from repro.core.notation import SystemParameters
from repro.obs import LoadMonitor, MetricsRegistry, MonitorConfig, RunContext
from repro.obs.columns import HIT
from repro.obs.export import export_json
from repro.sim.batch import run_event_campaign
from repro.sim.eventsim import EventDrivenSimulator
from repro.workload.adversarial import AdversarialDistribution

#: The cache-policy grid, spanning recency, frequency and adaptive
#: families (perfect is covered separately by the static-residency tests).
POLICIES = ("lru", "fifo", "clock", "lfu", "arc", "sieve")

ROUTINGS = ("pin", "random")


def _params(**overrides):
    base = dict(n=20, m=500, c=10, d=3, rate=2000.0)
    base.update(overrides)
    return SystemParameters(**base)


def assert_results_identical(a, b):
    """Field-by-field exact equality of two EventSimResults."""
    for name in a.__dataclass_fields__:
        left, right = getattr(a, name), getattr(b, name)
        if isinstance(left, np.ndarray):
            assert left.dtype == right.dtype, name
            assert (left == right).all(), name
        elif hasattr(left, "loads"):  # LoadVector
            assert (left.loads == right.loads).all(), name
            assert left.total_rate == right.total_rate, name
        elif isinstance(left, float) and np.isnan(left):
            assert np.isnan(right), name
        else:
            assert left == right, name


def _kernel(sim, n_queries, trial):
    return sim.run(n_queries, trial=trial)


def _flat_cache(policy, capacity=10):
    return make_cache(policy, capacity)


def _degenerate_tree(policy, capacity=10):
    return CacheTree([[make_cache(policy, capacity)]])


def _two_layer_tree(policy="lru", capacity=10, seed=5):
    return CacheTree(
        [
            [make_cache(policy, capacity) for _ in range(2)],
            [make_cache(policy, capacity)],
        ],
        partitioner=LayeredPartitioner((2, 1), seed=seed),
        selection=TwoChoiceLayerSelection(),
    )


def _perfect_tree(capacity=10):
    return CacheTree(
        [
            [PerfectCache(capacity), PerfectCache(capacity, range(10, 20))],
            [PerfectCache(capacity)],
        ],
        partitioner=LayeredPartitioner((2, 1), seed=5),
    )


class TestDegenerateIdentity:
    """One layer, one shard == the wrapped cache, bit for bit."""

    @pytest.mark.parametrize("routing", ROUTINGS)
    @pytest.mark.parametrize("policy", POLICIES)
    def test_routing_policy_grid(self, routing, policy):
        flat = EventDrivenSimulator(
            _params(), AdversarialDistribution(500, 100),
            cache=_flat_cache(policy), seed=11, routing=routing,
        )
        tree = EventDrivenSimulator(
            _params(), AdversarialDistribution(500, 100),
            cache=_degenerate_tree(policy), seed=11, routing=routing,
        )
        for trial in (0, 1):
            assert_results_identical(
                run_oracle(flat, 3000, trial=trial), tree.run(3000, trial=trial)
            )

    def test_fast_engine_falls_back_and_matches(self):
        """The degenerate tree in the kernel equals the flat cache in the
        kernel and in the oracle (the tree once fell back to it)."""
        def sim(cache):
            return EventDrivenSimulator(
                _params(), AdversarialDistribution(500, 100), cache=cache, seed=9,
            )

        tree = sim(_degenerate_tree("lru")).run(3000)
        assert_results_identical(sim(_flat_cache("lru")).run(3000), tree)
        assert_results_identical(run_oracle(sim(_flat_cache("lru")), 3000), tree)

    def test_monitor_telemetry_identical(self):
        params = _params()

        def run(cache, runner):
            monitor = ColumnCapture(
                MonitorConfig.from_params(params, x=11, window=0.05)
            )
            sim = EventDrivenSimulator(
                params, AdversarialDistribution(500, 11), seed=7,
                cache=cache, context=RunContext(monitor=monitor),
            )
            return runner(sim, 4000, 0), monitor

        a, mon_a = run(_flat_cache("lru"), run_oracle)
        b, mon_b = run(_degenerate_tree("lru"), _kernel)
        assert_results_identical(a, b)
        # The degenerate tree hands over flat columns: no tree paths.
        assert_columns_identical(*mon_b.columns, *mon_a.columns)
        assert mon_a.windows == mon_b.windows
        assert mon_a.alerts == mon_b.alerts
        assert mon_a.summaries == mon_b.summaries
        # The degenerate tree declares no layers: flat telemetry stays
        # byte-identical, with no layer_hits / layers keys appended.
        assert all("layer_hits" not in w for w in mon_b.windows)
        assert all("layers" not in s for s in mon_b.summaries)

    def test_metrics_export_identical(self):
        def run(cache, runner):
            registry = MetricsRegistry()
            sim = EventDrivenSimulator(
                _params(), AdversarialDistribution(500, 100), seed=5,
                cache=cache, context=RunContext(metrics=registry),
            )
            return runner(sim, 3000, 0), export_json(metrics=registry)

        a, export_a = run(_flat_cache("lru"), run_oracle)
        b, export_b = run(_degenerate_tree("lru"), _kernel)
        assert_results_identical(a, b)
        assert export_a == export_b

    def test_cache_stats_identical(self):
        flat, tree = _flat_cache("lru"), _degenerate_tree("lru")
        rng = np.random.default_rng(3)
        for key in rng.integers(0, 40, size=2000):
            assert flat.access(int(key)) == tree.access(int(key))
        shard = tree.layers[0][0]
        assert (flat.stats.hits, flat.stats.misses) == (
            tree.stats.hits, tree.stats.misses
        )
        assert (flat.stats.insertions, flat.stats.evictions) == (
            shard.stats.insertions, shard.stats.evictions
        )
        assert sorted(flat.keys()) == sorted(tree.keys())
        assert len(flat) == len(tree)


class TestCampaignIdentity:
    """Campaign plumbing: serial == workers=4, tree or flat."""

    def _campaign(self, factory, workers, layered=False):
        params = _params()
        monitor = LoadMonitor(
            MonitorConfig.from_params(params, x=11, window=0.05)
        )
        campaign = run_event_campaign(
            params,
            AdversarialDistribution(500, 11),
            trials=4,
            n_queries=2000,
            seed=17,
            cache_factory=factory,
            context=RunContext(monitor=monitor, workers=workers),
        )
        assert (
            any("layers" in s for s in monitor.summaries) is layered
        )
        return campaign, monitor

    def _assert_campaigns_identical(self, serial, parallel):
        campaign_a, mon_a = serial
        campaign_b, mon_b = parallel
        for a, b in zip(campaign_a.results, campaign_b.results):
            assert_results_identical(a, b)
        assert (
            campaign_a.load_report.normalized_max_per_trial
            == campaign_b.load_report.normalized_max_per_trial
        ).all()
        assert mon_a.windows == mon_b.windows
        assert mon_a.alerts == mon_b.alerts
        assert mon_a.summaries == mon_b.summaries

    def test_degenerate_tree_campaign_matches_flat(self):
        flat = self._campaign(functools.partial(_flat_cache, "lru"), 1)
        tree = self._campaign(functools.partial(_degenerate_tree, "lru"), 1)
        self._assert_campaigns_identical(flat, tree)

    def test_degenerate_tree_serial_vs_parallel(self):
        factory = functools.partial(_degenerate_tree, "lru")
        self._assert_campaigns_identical(
            self._campaign(factory, 1), self._campaign(factory, 4)
        )

    def test_layered_tree_serial_vs_parallel(self):
        factory = functools.partial(_two_layer_tree, "lru")
        serial = self._campaign(factory, 1, layered=True)
        parallel = self._campaign(factory, 4, layered=True)
        self._assert_campaigns_identical(serial, parallel)
        # Layered windows actually carried per-layer telemetry.
        mon = serial[1]
        assert any(
            any(w.get("layer_hits", {}).values()) for w in mon.windows
        )


class TestLayeredIdentity:
    """Non-degenerate trees: the kernel against the oracle."""

    @pytest.mark.parametrize("routing", ROUTINGS)
    def test_two_choice_tree_matches_oracle(self, routing):
        params = _params()

        def run(runner):
            monitor = ColumnCapture(
                MonitorConfig.from_params(params, x=11, window=0.05)
            )
            registry = MetricsRegistry()
            sim = EventDrivenSimulator(
                params, AdversarialDistribution(500, 30), seed=4,
                cache=_two_layer_tree("lru"), routing=routing,
                context=RunContext(metrics=registry, monitor=monitor),
            )
            results = [runner(sim, 3000, trial) for trial in (0, 1)]
            return results, monitor, export_json(metrics=registry)

        kernel, mon_k, export_k = run(_kernel)
        oracle, mon_o, export_o = run(run_oracle)
        for a, b in zip(kernel, oracle):
            assert_results_identical(a, b)
        assert len(mon_k.columns) == len(mon_o.columns) == 2
        for a, b in zip(mon_k.columns, mon_o.columns):
            assert_columns_identical(a, b)
            assert (a.layer[a.outcome == HIT] >= 0).all()
        assert mon_k.windows == mon_o.windows
        assert mon_k.summaries == mon_o.summaries
        assert export_k == export_o
        assert any(any(w.get("layer_hits", {}).values()) for w in mon_k.windows)


class TestSupportsGate:
    """Which caches the kernel batches through ``access_many``.

    A tree of perfect caches is per-shard static, but it must take the
    kernel's per-request access pass, because its probe accounting and
    hit attribution are per layer.
    """

    @staticmethod
    def _refuse(self, *args):
        raise AssertionError("this path must not be taken")

    def test_perfect_tree_is_static_but_unsupported(self, monkeypatch):
        monkeypatch.setattr(PerfectCache, "access_many", self._refuse)
        tree = _perfect_tree()
        sim = EventDrivenSimulator(
            _params(), AdversarialDistribution(500, 11), cache=tree, seed=1,
        )
        result = sim.run(1000)
        assert tree.HIERARCHICAL is True
        assert tree.stats.accesses == 1000
        assert tree.stats.hits == result.frontend_hits > 0

    def test_flat_perfect_cache_still_supported(self, monkeypatch):
        monkeypatch.setattr(PerfectCache, "access", self._refuse)
        sim = EventDrivenSimulator(
            _params(), AdversarialDistribution(500, 11), seed=1,
        )
        result = sim.run(1000)
        assert isinstance(sim.cache, PerfectCache)
        assert sim.cache.stats.accesses == 1000
        assert sim.cache.stats.hits == result.frontend_hits > 0

    def test_fast_engine_runs_legacy_for_perfect_tree(self):
        """A perfect tree in the kernel equals the oracle, per layer too."""
        def build():
            tree = _perfect_tree()
            sim = EventDrivenSimulator(
                _params(), AdversarialDistribution(500, 11), cache=tree, seed=1,
            )
            return sim, tree

        (kernel, tree_k), (oracle, tree_o) = build(), build()
        assert_results_identical(kernel.run(1000), run_oracle(oracle, 1000))
        assert tree_k.entered == tree_o.entered
        assert tree_k.shard_served == tree_o.shard_served

    def test_degenerate_perfect_tree_matches_flat_legacy(self):
        # Degeneracy holds for static shards too: a 1x1 tree of the
        # default perfect cache equals the flat default in the oracle.
        flat = EventDrivenSimulator(
            _params(), AdversarialDistribution(500, 11), seed=2,
        )
        tree = EventDrivenSimulator(
            _params(), AdversarialDistribution(500, 11),
            cache=CacheTree([[PerfectCache(10)]]), seed=2,
        )
        assert_results_identical(run_oracle(flat, 2000), tree.run(2000))
