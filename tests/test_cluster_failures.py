"""Tests for repro.cluster.failures (failure injection)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ballsbins.allocation import sample_replica_groups
from repro.cluster.failures import (
    degrade_groups,
    expected_unavailable_fraction,
    sample_failures,
)
from repro.exceptions import ConfigurationError


def _groups(keys=200, n=20, d=3, seed=1):
    return sample_replica_groups(keys, n, d, rng=seed)


class TestDegradeGroups:
    def test_no_failures_keeps_everything(self):
        groups = _groups()
        degraded = degrade_groups(groups, [])
        assert degraded.n_keys == 200
        assert degraded.unavailable.size == 0
        assert degraded.unavailable_fraction == 0.0
        for i in range(200):
            assert (degraded.survivors_of(i) == groups[i]).all()

    def test_failed_nodes_removed_everywhere(self):
        groups = _groups()
        degraded = degrade_groups(groups, [3, 7], n=20)
        assert degraded.failed == (3, 7)
        survivors = degraded.groups[degraded.groups >= 0]
        assert 3 not in survivors
        assert 7 not in survivors

    def test_unavailable_keys_detected(self):
        groups = np.array([[0, 1], [2, 3], [0, 2]])
        degraded = degrade_groups(groups, [0, 1])
        assert degraded.unavailable.tolist() == [0]
        assert degraded.survivors_of(2).tolist() == [2]

    def test_survivor_slices_consistent(self):
        groups = _groups()
        degraded = degrade_groups(groups, [0, 1, 2, 3, 4])
        total = sum(degraded.survivors_of(i).size for i in range(degraded.n_keys))
        assert total == int((degraded.groups >= 0).sum())

    def test_out_of_range_failures_rejected(self):
        with pytest.raises(ConfigurationError):
            degrade_groups(_groups(), [25], n=20)

    def test_survivor_index_validated(self):
        degraded = degrade_groups(_groups(), [])
        with pytest.raises(ConfigurationError):
            degraded.survivors_of(200)

    def test_negative_group_ids_rejected(self):
        # -1 marks a failed replica in the degraded matrix.
        with pytest.raises(ConfigurationError):
            degrade_groups(np.array([[0, -1]]), [])

    def test_failed_replicas_marked_in_place(self):
        groups = np.array([[0, 1, 2], [3, 1, 0]])
        degraded = degrade_groups(groups, [0, 1])
        assert degraded.groups.tolist() == [[-1, -1, 2], [3, -1, -1]]


class TestDegradedLoads:
    def test_no_load_on_failed_nodes(self):
        groups = _groups()
        degraded = degrade_groups(groups, [5, 6, 7])
        loads = degraded.least_loaded_loads(np.ones(200), n=20)
        assert loads[5] == loads[6] == loads[7] == 0.0

    def test_conserves_available_rate(self):
        groups = np.array([[0, 1], [2, 3], [0, 2]])
        degraded = degrade_groups(groups, [0, 1])
        loads = degraded.least_loaded_loads(np.array([5.0, 2.0, 1.0]), n=4)
        # Key 0 unavailable: only 3.0 of the 8.0 reaches the back end.
        assert loads.sum() == pytest.approx(3.0)

    def test_failures_raise_max_load(self):
        """Removing half the nodes concentrates surviving keys: the max
        load (over survivors) increases."""
        groups = _groups(keys=2000, n=20, d=3, seed=2)
        rates = np.ones(2000)
        healthy = degrade_groups(groups, []).least_loaded_loads(rates, 20)
        degraded = degrade_groups(groups, list(range(10))).least_loaded_loads(rates, 20)
        assert degraded.max() > healthy.max()

    def test_rates_shape_validated(self):
        degraded = degrade_groups(_groups(), [])
        with pytest.raises(ConfigurationError):
            degraded.least_loaded_loads(np.ones(5), n=20)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_rates_must_be_finite(self, bad):
        degraded = degrade_groups(_groups(), [])
        rates = np.ones(200)
        rates[7] = bad
        with pytest.raises(ConfigurationError, match="finite"):
            degraded.least_loaded_loads(rates, n=20)

    def test_node_ids_beyond_n_rejected(self):
        degraded = degrade_groups(_groups(), [])
        with pytest.raises(ConfigurationError):
            degraded.least_loaded_loads(np.ones(200), n=10)


class TestSampleFailures:
    def test_count_and_range(self):
        failed = sample_failures(100, 0.25, rng=1)
        assert len(failed) == 25
        assert len(set(failed)) == 25
        assert all(0 <= x < 100 for x in failed)

    def test_zero_fraction(self):
        assert sample_failures(50, 0.0) == ()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            sample_failures(10, 1.0)
        with pytest.raises(ConfigurationError):
            sample_failures(10, -0.1)


class TestExpectedUnavailable:
    def test_exact_small_case(self):
        # n=4, d=2, 2 failed: C(2,2)/C(4,2) = 1/6.
        assert expected_unavailable_fraction(4, 2, 2) == pytest.approx(1 / 6)

    def test_fewer_failures_than_replicas_is_zero(self):
        assert expected_unavailable_fraction(100, 3, 2) == 0.0

    def test_replication_helps_availability(self):
        f = 20
        assert expected_unavailable_fraction(100, 3, f) < expected_unavailable_fraction(
            100, 2, f
        ) < expected_unavailable_fraction(100, 1, f)

    @given(
        n=st.integers(min_value=4, max_value=40),
        d=st.integers(min_value=1, max_value=4),
        frac=st.floats(min_value=0.1, max_value=0.6),
        seed=st.integers(min_value=0, max_value=300),
    )
    @settings(max_examples=30, deadline=None)
    def test_formula_matches_simulation(self, n, d, frac, seed):
        """Property: the closed form tracks the empirical unavailable
        fraction of randomly degraded random groups."""
        d = min(d, n)
        keys = 600
        groups = sample_replica_groups(keys, n, d, rng=seed)
        failed = sample_failures(n, frac, rng=seed + 1)
        degraded = degrade_groups(groups, failed, n=n)
        expected = expected_unavailable_fraction(n, d, len(failed))
        measured = degraded.unavailable_fraction
        # Binomial noise: allow a generous band around the expectation.
        band = 4.0 * np.sqrt(max(expected * (1 - expected), 1e-4) / keys)
        assert abs(measured - expected) <= band + 0.02
