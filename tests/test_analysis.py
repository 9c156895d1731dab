"""Tests for repro.analysis.tightness and the critical-point helper."""

import pytest
from critical_point import find_critical_cache_size

from repro.analysis.tightness import bound_tightness
from repro.exceptions import AnalysisError


class TestCriticalPoint:
    def test_bisects_analytic_curve(self):
        # gain(c) = 1500 / c crosses 1.0 at exactly c = 1500.
        result = find_critical_cache_size(lambda c: 1500.0 / c, lo=100, hi=5000)
        assert result.critical_cache == 1501 or result.critical_cache == 1500
        assert result.lo < result.hi

    def test_respects_tolerance(self):
        result = find_critical_cache_size(
            lambda c: 1500.0 / c, lo=100, hi=5000, tolerance=64
        )
        assert result.hi - result.lo <= 64
        assert abs(result.critical_cache - 1500) <= 64

    def test_evaluations_recorded(self):
        result = find_critical_cache_size(lambda c: 1500.0 / c, lo=100, hi=5000)
        assert len(result.evaluations) >= 2
        assert result.evaluations[0][0] == 100

    def test_bad_bracket_rejected(self):
        with pytest.raises(AnalysisError):
            find_critical_cache_size(lambda c: 0.5, lo=10, hi=100)  # lo not > 1
        with pytest.raises(AnalysisError):
            find_critical_cache_size(lambda c: 2.0, lo=10, hi=100)  # hi not <= 1
        with pytest.raises(AnalysisError):
            find_critical_cache_size(lambda c: 1.0 / c, lo=100, hi=100)

    def test_describe(self):
        result = find_critical_cache_size(lambda c: 1500.0 / c, lo=100, hi=5000)
        assert "critical cache size" in result.describe()


class TestTightness:
    def test_valid_bound(self):
        report = bound_tightness([1.0, 2.0], [1.5, 2.1])
        assert report.valid
        assert report.violations == 0
        assert report.mean_slack == pytest.approx(0.3)
        assert report.max_slack == pytest.approx(0.5)

    def test_violations_counted(self):
        report = bound_tightness([1.0, 3.0], [1.5, 2.0])
        assert not report.valid
        assert report.violations == 1
        assert report.max_violation == pytest.approx(1.0)

    def test_relative_slack(self):
        report = bound_tightness([2.0, 2.0], [3.0, 3.0])
        assert report.relative_mean_slack == pytest.approx(0.5)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(AnalysisError):
            bound_tightness([1.0], [1.0, 2.0])

    def test_describe(self):
        assert "holds" in bound_tightness([1.0], [2.0]).describe()
        assert "VIOLATED" in bound_tightness([3.0], [2.0]).describe()
