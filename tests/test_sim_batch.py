"""Tests for repro.sim.batch (event-driven campaigns)."""

import numpy as np
import pytest

from repro.cache.lru import LRUCache
from repro.core.notation import SystemParameters
from repro.exceptions import SimulationError
from repro.sim.batch import run_event_campaign
from repro.workload.adversarial import AdversarialDistribution
from repro.workload.distributions import UniformDistribution


def _params():
    return SystemParameters(n=10, m=200, c=10, d=3, rate=2000.0)


class TestRunEventCampaign:
    def test_aggregation_shapes(self):
        campaign = run_event_campaign(
            _params(), UniformDistribution(200), trials=4, n_queries=4000, seed=1
        )
        assert campaign.trials == 4
        assert campaign.load_report.trials == 4
        assert campaign.load_report.n_nodes == 10
        assert 0.0 <= campaign.mean_hit_rate <= 1.0
        assert campaign.worst_drop_rate >= campaign.mean_drop_rate - 1e-12

    def test_trials_are_independent(self):
        campaign = run_event_campaign(
            _params(), UniformDistribution(200), trials=4, n_queries=4000, seed=1
        )
        gains = campaign.load_report.normalized_max_per_trial
        assert len(set(np.round(gains, 6))) > 1

    def test_reproducible(self):
        a = run_event_campaign(
            _params(), UniformDistribution(200), trials=3, n_queries=3000, seed=5
        )
        b = run_event_campaign(
            _params(), UniformDistribution(200), trials=3, n_queries=3000, seed=5
        )
        assert (
            a.load_report.normalized_max_per_trial
            == b.load_report.normalized_max_per_trial
        ).all()

    def test_unseeded_campaign_shares_one_recorded_seed(self, monkeypatch):
        import repro.sim.eventsim as eventsim

        seeds = []

        class SpyPartitioner(eventsim.RandomTablePartitioner):
            def __init__(self, *args, seed=None, **kwargs):
                seeds.append(seed)
                super().__init__(*args, seed=seed, **kwargs)

        monkeypatch.setattr(eventsim, "RandomTablePartitioner", SpyPartitioner)
        campaign = run_event_campaign(
            _params(), UniformDistribution(200), trials=3, n_queries=1000,
            seed=None,
        )
        # One secret partitioner for the whole campaign, not one per trial.
        seed = campaign.load_report.metadata["seed"]
        assert isinstance(seed, int)
        assert len(seeds) == 3 and len(set(seeds)) == 1 and None not in seeds
        rerun = run_event_campaign(
            _params(), UniformDistribution(200), trials=3, n_queries=1000,
            seed=seed,
        )
        assert (
            rerun.load_report.normalized_max_per_trial
            == campaign.load_report.normalized_max_per_trial
        ).all()

    def test_cache_factory_gives_fresh_cache_per_trial(self):
        caches = []

        def factory():
            cache = LRUCache(10)
            caches.append(cache)
            return cache

        run_event_campaign(
            _params(),
            AdversarialDistribution(200, 50),
            trials=3,
            n_queries=2000,
            seed=2,
            cache_factory=factory,
        )
        assert len(caches) == 3
        assert all(c.stats.accesses == 2000 for c in caches)

    def test_simulator_kwargs_forwarded(self):
        # n >> c so the single uncached key's load (R/11 = n/11 times
        # the even split) far exceeds the tight 1.1x capacity.
        params = SystemParameters(n=40, m=200, c=10, d=3, rate=2000.0)
        campaign = run_event_campaign(
            params,
            AdversarialDistribution(200, 11),
            trials=2,
            n_queries=5000,
            seed=3,
            node_capacity=1.1 * params.even_split,
        )
        assert campaign.worst_drop_rate > 0.1

    def test_comparable_with_analytic_engine(self):
        from repro.sim.analytic import simulate_distribution

        params = _params()
        attack = AdversarialDistribution(200, 100)
        campaign = run_event_campaign(
            params, attack, trials=4, n_queries=20_000, seed=4
        )
        analytic = simulate_distribution(params, attack, trials=20, seed=4)
        assert campaign.load_report.mean == pytest.approx(analytic.mean, rel=0.3)

    def test_rejects_zero_trials(self):
        with pytest.raises(SimulationError):
            run_event_campaign(
                _params(), UniformDistribution(200), trials=0, n_queries=100
            )

    def test_campaign_leaves_shared_partitioner_untouched(self):
        import pickle

        from repro.chaos.config import ChaosConfig
        from repro.cluster.partitioner import RandomTablePartitioner

        params = _params()
        partitioner = RandomTablePartitioner(params.n, params.d, params.m, seed=8)
        before = pickle.dumps(partitioner)
        for routing in ("pin", "random"):
            run_event_campaign(
                params, AdversarialDistribution(200, 40), trials=3,
                n_queries=2000, seed=6, partitioner=partitioner, routing=routing,
                cache_factory=lambda: LRUCache(10),
                chaos=ChaosConfig(failure_rate=2.0, mttr=0.2),
            )
        assert pickle.dumps(partitioner) == before
