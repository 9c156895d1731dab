"""The published max-load bounds against the exact processes.

Eq. (6) (Berenbrink et al., d choices) is
``core.bounds.balls_in_bins_key_bound``; the Raab-Steger one-choice
estimate is ``core.baseline_socc11.one_choice_key_bound``.
"""

import pytest

from repro.ballsbins.allocation import d_choice_allocate, one_choice_allocate
from repro.core.baseline_socc11 import one_choice_key_bound
from repro.core.bounds import balls_in_bins_key_bound
from repro.exceptions import ConfigurationError


class TestOneChoiceBound:
    def test_zero_balls(self):
        assert one_choice_key_bound(0, 10) == 0.0

    def test_single_bin(self):
        assert one_choice_key_bound(42, 1) == 42.0

    def test_tracks_simulation_heavily_loaded(self):
        # Raab-Steger is a concentration estimate (the max lands around
        # it, half the trials slightly above), not a strict bound: check
        # it within a few percent both ways.
        bins = 100
        balls = 50_000
        bound = one_choice_key_bound(balls, bins)
        for seed in range(10):
            occ = one_choice_allocate(balls, bins, rng=seed)
            assert occ.max() <= bound * 1.05
            assert occ.max() >= bound * 0.90

    def test_monotone_in_balls(self):
        assert one_choice_key_bound(2000, 50) > one_choice_key_bound(1000, 50)


class TestDChoiceBound:
    def test_rejects_d_one(self):
        with pytest.raises(ConfigurationError):
            balls_in_bins_key_bound(10, 5, 1)

    def test_covers_simulation_with_calibrated_k_prime(self):
        bins, balls = 200, 20_000
        bound = balls_in_bins_key_bound(balls, bins, 3, k_prime=1.0)
        for seed in range(10):
            occ = d_choice_allocate(balls, bins, 3, rng=seed)
            assert occ.max() <= bound

    def test_excess_independent_of_ball_count(self):
        """The defining property vs one choice: the excess over M/N does
        not grow with M."""
        small = balls_in_bins_key_bound(1000, 100, 3) - 10.0
        large = balls_in_bins_key_bound(100_000, 100, 3) - 1000.0
        assert small == pytest.approx(large)

    def test_more_choices_tighter(self):
        assert balls_in_bins_key_bound(1000, 100, 4) < balls_in_bins_key_bound(
            1000, 100, 2
        )

