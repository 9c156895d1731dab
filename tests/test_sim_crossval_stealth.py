"""Tests for the stealth experiment driver."""

import pytest

from stealth import run_stealth_sweep


class TestStealthSweep:
    def test_shape_and_findings(self):
        result = run_stealth_sweep(
            trials=5, seed=2, fractions=(0.0, 0.3, 1.0), n=100, m=5000
        )
        fractions = result.column("attack_fraction")
        gains = result.column("gain")
        assert fractions == [0.0, 0.3, 1.0]
        # Damage grows with the attack share.
        assert gains[-1] > gains[0]
        # The pure flood reproduces the Case-1 gain n/(c+1).
        assert gains[-1] == pytest.approx(100 / result.config["flood_x"], rel=0.15)

    def test_blended_fingerprint_is_benign(self):
        result = run_stealth_sweep(
            trials=3, seed=2, fractions=(0.3,), n=100, m=5000
        )
        assert result.column("verdict") == ["skewed-benign"]

    def test_pure_flood_is_flagged(self):
        result = run_stealth_sweep(trials=3, seed=2, fractions=(1.0,), n=100, m=5000)
        assert result.column("verdict") == ["uniform-flood"]

    def test_notes_present(self):
        result = run_stealth_sweep(trials=3, seed=2, fractions=(0.0, 1.0), n=100, m=5000)
        assert result.notes
