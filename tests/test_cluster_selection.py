"""Tests for repro.cluster.selection policies."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.selection import (
    LeastLoadedKeyPinning,
    PerQueryRandomSpreading,
    PrimaryKeyPinning,
    RandomKeyPinning,
    RoundRobinSpreading,
    make_selection_policy,
)
from repro.exceptions import ConfigurationError

POLICIES = [
    LeastLoadedKeyPinning(),
    RandomKeyPinning(),
    PrimaryKeyPinning(),
    RoundRobinSpreading(),
    PerQueryRandomSpreading(),
]


def _case(rng, keys=50, n=10, d=3):
    groups = np.stack(
        [rng.choice(n, size=d, replace=False) for _ in range(keys)]
    )
    rates = rng.random(keys) + 0.1
    return groups, rates


@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.name)
class TestPolicyContract:
    def test_conserves_total_rate(self, policy, rng):
        groups, rates = _case(rng)
        loads = policy.node_loads(groups, rates, 10, rng=rng)
        assert loads.sum() == pytest.approx(rates.sum())

    def test_loads_nonnegative_and_right_shape(self, policy, rng):
        groups, rates = _case(rng)
        loads = policy.node_loads(groups, rates, 10, rng=rng)
        assert loads.shape == (10,)
        assert (loads >= 0).all()

    def test_empty_input(self, policy, rng):
        loads = policy.node_loads(
            np.zeros((0, 3), dtype=int), np.zeros(0), 5, rng=rng
        )
        assert (loads == 0).all()

    def test_load_stays_inside_groups(self, policy, rng):
        # All groups use only nodes {0, 1, 2}; nothing may leak elsewhere.
        groups = np.array([[0, 1, 2]] * 20)
        rates = np.ones(20)
        loads = policy.node_loads(groups, rates, 10, rng=rng)
        assert loads[3:].sum() == pytest.approx(0.0)

    def test_validation_errors(self, policy, rng):
        with pytest.raises(ConfigurationError):
            policy.node_loads(np.array([[0, 1]]), np.array([1.0, 2.0]), 5, rng=rng)
        with pytest.raises(ConfigurationError):
            policy.node_loads(np.array([[0, 9]]), np.array([1.0]), 5, rng=rng)
        with pytest.raises(ConfigurationError):
            policy.node_loads(np.array([[0, 1]]), np.array([-1.0]), 5, rng=rng)


class TestLeastLoaded:
    def test_equal_rates_match_d_choice_process(self, rng):
        from repro.ballsbins.allocation import d_choice_allocate

        groups = np.stack([rng.choice(20, size=3, replace=False) for _ in range(300)])
        loads = LeastLoadedKeyPinning().node_loads(groups, np.ones(300), 20)
        occ = d_choice_allocate(300, 20, 3, choices=groups)
        assert (loads == occ.astype(float)).all()

    def test_deterministic(self, rng):
        groups, rates = _case(rng)
        a = LeastLoadedKeyPinning().node_loads(groups, rates, 10)
        b = LeastLoadedKeyPinning().node_loads(groups, rates, 10)
        assert (a == b).all()

    def test_balances_better_than_random(self):
        rng = np.random.default_rng(0)
        groups = np.stack([rng.choice(50, size=3, replace=False) for _ in range(5000)])
        rates = np.ones(5000)
        ll = LeastLoadedKeyPinning().node_loads(groups, rates, 50)
        rnd = RandomKeyPinning().node_loads(groups, rates, 50, rng=1)
        assert ll.max() < rnd.max()

    def test_max_load_ordered_least_loaded_split_random(self):
        # Least-loaded corrects for fluctuations in how many groups a
        # node joined; even splitting inherits them (std ~ sqrt(M d)/d per
        # node) and random picking is worst (std ~ sqrt(M/N)).
        from repro.ballsbins.allocation import sample_replica_groups

        groups = sample_replica_groups(30_000, 100, 3, rng=9)
        rates = np.ones(30_000)
        ll = LeastLoadedKeyPinning().node_loads(groups, rates, 100)
        split = RoundRobinSpreading().node_loads(groups, rates, 100)
        rnd = RandomKeyPinning().node_loads(groups, rates, 100, rng=9)
        assert ll.max() <= split.max() <= rnd.max()


class TestRoundRobin:
    def test_exact_split(self):
        groups = np.array([[0, 1, 2], [2, 3, 4]])
        rates = np.array([3.0, 6.0])
        loads = RoundRobinSpreading().node_loads(groups, rates, 5)
        assert loads[0] == pytest.approx(1.0)
        assert loads[2] == pytest.approx(1.0 + 2.0)
        assert loads[4] == pytest.approx(2.0)


class TestPrimary:
    def test_all_rate_on_first_replica(self):
        groups = np.array([[3, 1], [3, 0]])
        loads = PrimaryKeyPinning().node_loads(groups, np.array([1.0, 2.0]), 5)
        assert loads[3] == pytest.approx(3.0)
        assert loads.sum() == pytest.approx(3.0)


class TestPerQueryRandom:
    def test_mean_matches_round_robin(self):
        groups = np.array([[0, 1, 2]] * 10)
        rates = np.full(10, 30.0)
        totals = np.zeros(5)
        for seed in range(30):
            totals += PerQueryRandomSpreading().node_loads(groups, rates, 5, rng=seed)
        means = totals / 30
        assert means[0] == pytest.approx(100.0, rel=0.1)

    def test_rejects_bad_granularity(self):
        with pytest.raises(ConfigurationError):
            PerQueryRandomSpreading(queries_per_unit_rate=0)


class TestFactory:
    @pytest.mark.parametrize(
        "name",
        ["least-loaded", "random-pin", "primary", "round-robin", "per-query-random"],
    )
    def test_all_names_constructible(self, name):
        assert make_selection_policy(name).name == name

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError):
            make_selection_policy("bogus")

    @given(
        keys=st.integers(min_value=0, max_value=60),
        n=st.integers(min_value=2, max_value=15),
        seed=st.integers(min_value=0, max_value=200),
    )
    @settings(max_examples=40, deadline=None)
    def test_conservation_property_all_policies(self, keys, n, seed):
        """All policies conserve the offered rate exactly (the invariant
        the LoadVector math depends on)."""
        rng = np.random.default_rng(seed)
        d = min(3, n)
        groups = (
            np.stack([rng.choice(n, size=d, replace=False) for _ in range(keys)])
            if keys
            else np.zeros((0, d), dtype=int)
        )
        rates = rng.random(keys) if keys else np.zeros(0)
        for policy in POLICIES:
            loads = policy.node_loads(groups, rates, n, rng=seed)
            assert loads.sum() == pytest.approx(rates.sum())
