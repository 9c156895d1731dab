"""Tests for repro.ballsbins.allocation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from placement_oracles import d_choice_sequential

from repro.ballsbins.allocation import (
    d_choice_allocate,
    one_choice_allocate,
    sample_replica_groups,
)
from repro.exceptions import ConfigurationError


class TestOneChoice:
    def test_conservation(self, rng):
        occ = one_choice_allocate(1000, 37, rng=rng)
        assert occ.sum() == 1000
        assert occ.shape == (37,)

    def test_zero_balls(self):
        occ = one_choice_allocate(0, 5, rng=1)
        assert occ.sum() == 0

    def test_reproducible(self):
        a = one_choice_allocate(500, 10, rng=42)
        b = one_choice_allocate(500, 10, rng=42)
        assert (a == b).all()

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigurationError):
            one_choice_allocate(-1, 5)
        with pytest.raises(ConfigurationError):
            one_choice_allocate(5, 0)


class TestSampleReplicaGroups:
    def test_shape(self, rng):
        groups = sample_replica_groups(100, 20, 3, rng=rng)
        assert groups.shape == (100, 3)
        assert groups.min() >= 0 and groups.max() < 20

    def test_distinct_within_rows(self, rng):
        groups = sample_replica_groups(500, 10, 3, rng=rng, distinct=True)
        for row in groups:
            assert len(set(row.tolist())) == 3

    def test_extreme_distinct_case(self, rng):
        # d = bins: every row must be a permutation of all bins.
        groups = sample_replica_groups(50, 4, 4, rng=rng, distinct=True)
        for row in groups:
            assert sorted(row.tolist()) == [0, 1, 2, 3]

    def test_with_replacement_mode(self, rng):
        groups = sample_replica_groups(2000, 3, 3, rng=rng, distinct=False)
        has_dup = any(len(set(r.tolist())) < 3 for r in groups)
        assert has_dup  # with 3 bins, duplicates are near-certain

    def test_zero_balls(self):
        assert sample_replica_groups(0, 5, 2, rng=1).shape == (0, 2)


class TestDChoice:
    def test_conservation(self, rng):
        occ = d_choice_allocate(1000, 37, 3, rng=rng)
        assert occ.sum() == 1000

    def test_d_one_equals_first_column(self, rng):
        choices = sample_replica_groups(200, 10, 1, rng=rng)
        occ = d_choice_allocate(200, 10, 1, choices=choices)
        assert (occ == np.bincount(choices[:, 0], minlength=10)).all()

    def test_never_worse_than_round_down(self, rng):
        # Greedy least-loaded cannot leave any bin above ceil(M/N) + gap;
        # sanity: the max is at most one-choice max on the same stats.
        occ = d_choice_allocate(10_000, 100, 3, rng=rng)
        assert occ.max() >= 100  # at least the average
        assert occ.max() <= 110  # far tighter than one-choice in practice

    def test_much_better_balanced_than_one_choice(self):
        """The power of d choices: the gap above the mean collapses."""
        gaps_one, gaps_d = [], []
        for seed in range(5):
            one = one_choice_allocate(50_000, 500, rng=seed)
            multi = d_choice_allocate(50_000, 500, 3, rng=seed)
            gaps_one.append(one.max() - 100)
            gaps_d.append(multi.max() - 100)
        assert np.mean(gaps_d) < np.mean(gaps_one) / 3

    def test_choices_shape_validated(self):
        with pytest.raises(ConfigurationError):
            d_choice_allocate(10, 5, 2, choices=np.zeros((9, 2), dtype=int))

    def test_rejects_d_above_bins(self):
        with pytest.raises(ConfigurationError):
            d_choice_allocate(10, 3, 4)

    @given(
        balls=st.integers(min_value=0, max_value=500),
        bins=st.integers(min_value=1, max_value=50),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_conservation_property(self, balls, bins, seed):
        """Occupancy always sums to the ball count, for any (M, N, d)."""
        d = min(3, bins)
        occ = d_choice_allocate(balls, bins, d, rng=seed)
        assert occ.sum() == balls
        assert (occ >= 0).all()


class TestBatchedKernel:
    """The greedy kernel must be byte-identical to the reference loop."""

    @given(
        bins=st.integers(min_value=1, max_value=40),
        balls=st.integers(min_value=0, max_value=400),
        seed=st.integers(min_value=0, max_value=10_000),
        d_frac=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_batched_equals_sequential(self, bins, balls, seed, d_frac):
        """Identity over the whole (bins, d, balls) space, d=1..bins."""
        d = 1 + round(d_frac * (bins - 1))  # hits both d=1 and d=bins
        choices = np.random.default_rng(seed).integers(0, bins, size=(balls, d))
        sequential = d_choice_sequential(choices, bins)
        kernel = d_choice_allocate(balls, bins, d, choices=choices)
        assert kernel.tobytes() == sequential.tobytes()
        assert sequential.sum() == balls

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_identity_at_batch_scale(self, d):
        """Thousands of balls on a small bin space."""
        choices = sample_replica_groups(6000, 64, d, rng=7)
        sequential = d_choice_sequential(choices, 64)
        kernel = d_choice_allocate(6000, 64, d, choices=choices)
        assert kernel.tobytes() == sequential.tobytes()

    def test_duplicate_bins_within_row_not_self_blocking(self):
        """A ball listing one bin twice still places there (with replacement)."""
        targets = np.arange(5000) % 197
        choices = np.stack([targets, targets], axis=1)  # both slots same bin
        kernel = d_choice_allocate(5000, 197, 2, choices=choices)
        assert (kernel == d_choice_sequential(choices, 197)).all()
        assert (kernel == np.bincount(targets, minlength=197)).all()

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_choices_outside_bins_rejected(self, bad):
        """Out-of-range ids would wrap or hit the kernel's sentinel slot."""
        choices = np.array([[bad, 0], [bad, 1], [0, 1]])
        with pytest.raises(ConfigurationError, match="bin ids"):
            d_choice_allocate(3, 3, 2, choices=choices)
