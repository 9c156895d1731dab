"""Tests for the request-level event-driven simulator."""

import pytest

from repro.cache.lru import LRUCache
from repro.core.notation import SystemParameters
from repro.exceptions import ConfigurationError, SimulationError
from repro.sim.eventsim import EventDrivenSimulator
from repro.workload.adversarial import AdversarialDistribution
from repro.workload.distributions import UniformDistribution
from repro.workload.zipf import ZipfDistribution


def _params(**overrides):
    base = dict(n=20, m=500, c=10, d=3, rate=2000.0)
    base.update(overrides)
    return SystemParameters(**base)


class TestConstruction:
    def test_mismatched_distribution_rejected(self):
        with pytest.raises(ConfigurationError):
            EventDrivenSimulator(_params(), UniformDistribution(99))

    def test_unknown_routing_rejected(self):
        with pytest.raises(ConfigurationError):
            EventDrivenSimulator(
                _params(), UniformDistribution(500), routing="psychic"
            )

    def test_zero_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            EventDrivenSimulator(_params(rate=0.0), UniformDistribution(500))

    def test_default_cache_is_perfect_top_c(self):
        sim = EventDrivenSimulator(_params(), ZipfDistribution(500, 1.01), seed=1)
        assert len(sim.cache) == 10
        assert 0 in sim.cache  # rank 0 is the Zipf head

    def test_unknown_engine_rejected(self):
        # There is one engine, so there is no engine to choose.
        with pytest.raises(TypeError):
            EventDrivenSimulator(
                _params(), UniformDistribution(500), engine="fast"
            )

    def test_removed_routing_named_in_error(self):
        with pytest.raises(ConfigurationError, match="'pin' or 'random'"):
            EventDrivenSimulator(
                _params(), UniformDistribution(500),
                routing="least-outstanding",
            )

    def test_invalid_queue_settings_rejected(self):
        for kwargs in (
            {"queue_limit": -1}, {"service": "weird"}, {"node_capacity": 0.0}
        ):
            with pytest.raises(ConfigurationError):
                EventDrivenSimulator(
                    _params(), UniformDistribution(500), **kwargs
                )

    def test_mismatched_partitioner_rejected(self):
        from repro.cluster.partitioner import RandomTablePartitioner

        with pytest.raises(ConfigurationError, match="partitioner built for"):
            EventDrivenSimulator(
                _params(), UniformDistribution(500),
                partitioner=RandomTablePartitioner(5, 2, 500, seed=1),
            )


class TestRun:
    def test_accounting_adds_up(self):
        sim = EventDrivenSimulator(_params(), UniformDistribution(500), seed=2)
        result = sim.run(5000)
        assert result.frontend_hits + result.backend_queries == 5000
        assert result.served.sum() + result.dropped.sum() == result.backend_queries
        assert 0.0 <= result.cache_hit_rate <= 1.0

    def test_cache_hit_rate_matches_pattern(self):
        # Perfect cache + uniform over 500 keys with c = 10: hit rate ~ 2%.
        sim = EventDrivenSimulator(_params(), UniformDistribution(500), seed=3)
        result = sim.run(20_000)
        assert result.cache_hit_rate == pytest.approx(10 / 500, abs=0.01)

    def test_adversarial_hot_key_saturates_underprovisioned_node(self):
        """x = c + 1 flood: one uncached key pinned to one node, offered
        ~R/x = 1.8x the even split.  A node with only 1.2x headroom must
        saturate and drop."""
        params = _params()
        sim = EventDrivenSimulator(
            params,
            AdversarialDistribution(500, params.c + 1),
            node_capacity=1.2 * params.even_split,
            seed=4,
        )
        result = sim.run(20_000)
        assert result.normalized_max > 1.0
        assert result.drop_rate > 0.1

    def test_provisioned_cache_keeps_drops_negligible(self):
        """With the cache provisioned per the paper the same adversary's
        best pattern (query everything) causes no saturation."""
        params = _params(c=80)  # c >> n k for this tiny system
        sim = EventDrivenSimulator(params, UniformDistribution(500), seed=5)
        result = sim.run(20_000)
        assert result.normalized_max < 2.0
        assert result.drop_rate < 0.01

    def test_latencies_reported(self):
        sim = EventDrivenSimulator(_params(), UniformDistribution(500), seed=6)
        result = sim.run(3000)
        assert result.latency_p50 <= result.latency_p95 <= result.latency_p99
        assert result.latency_mean > 0

    def test_reproducible_per_trial(self):
        params = _params()
        a = EventDrivenSimulator(params, UniformDistribution(500), seed=7).run(2000)
        b = EventDrivenSimulator(params, UniformDistribution(500), seed=7).run(2000)
        assert a.normalized_max == b.normalized_max
        assert (a.served == b.served).all()

    def test_trials_are_independent(self):
        params = _params()
        sim = EventDrivenSimulator(params, UniformDistribution(500), seed=7)
        a = sim.run(2000, trial=0)
        sim2 = EventDrivenSimulator(params, UniformDistribution(500), seed=7)
        b = sim2.run(2000, trial=1)
        assert a.normalized_max != b.normalized_max

    def test_rejects_empty_run(self):
        sim = EventDrivenSimulator(_params(), UniformDistribution(500), seed=1)
        with pytest.raises(SimulationError):
            sim.run(0)

    @pytest.mark.parametrize("routing", ["pin", "random"])
    def test_all_routings_work(self, routing):
        sim = EventDrivenSimulator(
            _params(), UniformDistribution(500), routing=routing, seed=8
        )
        result = sim.run(3000)
        assert result.backend_queries > 0
        assert result.served.sum() > 0

    def test_real_cache_policy_integration(self):
        """LRU front end under an adversarial sweep: the scan defeats
        LRU, so the back end sees nearly everything."""
        params = _params()
        sim = EventDrivenSimulator(
            params,
            AdversarialDistribution(500, 100),
            cache=LRUCache(params.c),
            seed=9,
        )
        result = sim.run(10_000)
        assert result.cache_hit_rate < 0.2  # scan-flooded LRU barely hits

    def test_fast_engine_reproducible(self):
        params = _params()
        a = EventDrivenSimulator(params, UniformDistribution(500), seed=7).run(2000)
        b = EventDrivenSimulator(params, UniformDistribution(500), seed=7).run(2000)
        assert a.normalized_max == b.normalized_max
        assert (a.served == b.served).all()

    def test_fast_engine_accounting_adds_up(self):
        sim = EventDrivenSimulator(_params(), UniformDistribution(500), seed=2)
        result = sim.run(5000)
        assert result.frontend_hits + result.backend_queries == 5000
        assert result.served.sum() + result.dropped.sum() == result.backend_queries

    def test_describe(self):
        sim = EventDrivenSimulator(_params(), UniformDistribution(500), seed=1)
        text = sim.run(1000).describe()
        assert "cache hit rate" in text
        assert "drop rate" in text
