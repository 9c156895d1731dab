"""Cross-cutting property-based invariants (hypothesis).

The focused suites test behaviours; this file pins down the algebraic
invariants that everything else silently relies on, over randomly
generated inputs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detection_oracle import profile_counts
from repro.ballsbins.allocation import sample_replica_groups
from repro.cache.sketch import CountMinSketch
from repro.cluster.failures import degrade_groups, expected_unavailable_fraction
from repro.workload.distributions import GeometricDistribution, UniformDistribution
from repro.workload.mixture import MixtureDistribution
from repro.workload.zipf import ZipfDistribution


class TestSketchInvariants:
    @given(
        seed=st.integers(min_value=0, max_value=1000),
        n_ops=st.integers(min_value=1, max_value=400),
        universe=st.integers(min_value=1, max_value=100),
        width=st.integers(min_value=16, max_value=256),
        depth=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=30, deadline=None)
    def test_never_underestimates_any_sequence(
        self, seed, n_ops, universe, width, depth
    ):
        """For any add() sequence, estimate(k) >= true count of k."""
        sketch = CountMinSketch(width=width, depth=depth)
        rng = np.random.default_rng(seed)
        truth = {}
        for key in rng.integers(0, universe, size=n_ops).tolist():
            sketch.add(key)
            truth[key] = truth.get(key, 0) + 1
        for key, count in truth.items():
            assert sketch.estimate(key) >= count

    @given(seed=st.integers(min_value=0, max_value=500))
    @settings(max_examples=20, deadline=None)
    def test_halving_halves_total(self, seed):
        sketch = CountMinSketch()
        rng = np.random.default_rng(seed)
        for key in rng.integers(0, 50, size=100).tolist():
            sketch.add(key)
        before = sketch.total
        sketch.halve()
        assert sketch.total == before // 2


class TestMixtureInvariants:
    @given(
        weights=st.lists(
            st.floats(min_value=0.01, max_value=10.0), min_size=1, max_size=4
        ),
        m=st.integers(min_value=2, max_value=200),
        seed=st.integers(min_value=0, max_value=500),
    )
    @settings(max_examples=30, deadline=None)
    def test_mixture_is_valid_distribution(self, weights, m, seed):
        """Any positively weighted mixture of valid components is a
        valid distribution, and samples stay in range."""
        rng = np.random.default_rng(seed)
        components = []
        for weight in weights:
            kind = rng.integers(0, 3)
            if kind == 0:
                dist = UniformDistribution(m)
            elif kind == 1:
                dist = ZipfDistribution(m, s=float(rng.uniform(0, 2)))
            else:
                dist = GeometricDistribution(m, ratio=float(rng.uniform(0.5, 1.0)))
            components.append((weight, dist))
        mix = MixtureDistribution(components)
        probs = mix.probabilities()
        assert probs.sum() == pytest.approx(1.0)
        assert (probs >= 0).all()
        keys = mix.sample(200, rng=seed)
        assert keys.min() >= 0 and keys.max() < m


class TestFailureInvariants:
    @given(
        n=st.integers(min_value=3, max_value=30),
        d=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=300),
        n_failed=st.integers(min_value=0, max_value=29),
    )
    @settings(max_examples=30, deadline=None)
    def test_survivor_structure_consistent(self, n, d, seed, n_failed):
        """Survivor slices partition the surviving placements; the
        unavailable set is exactly the keys with empty slices."""
        d = min(d, n)
        n_failed = min(n_failed, n - 1)
        keys = 120
        groups = sample_replica_groups(keys, n, d, rng=seed)
        failed = list(range(n_failed))
        degraded = degrade_groups(groups, failed, n=n)
        total_survivors = 0
        for i in range(keys):
            survivors = degraded.survivors_of(i)
            total_survivors += survivors.size
            assert not set(survivors.tolist()) & set(failed)
            if survivors.size == 0:
                assert i in degraded.unavailable
        assert total_survivors == int((degraded.groups >= 0).sum())

    @given(
        n=st.integers(min_value=2, max_value=50),
        d=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=40, deadline=None)
    def test_unavailability_monotone_in_failures(self, n, d):
        d = min(d, n)
        values = [expected_unavailable_fraction(n, d, f) for f in range(n + 1)]
        assert values[0] == 0.0
        assert values[-1] == pytest.approx(1.0)
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


class TestDetectionInvariants:
    @given(
        counts=st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=100)
    )
    @settings(max_examples=50, deadline=None)
    def test_profile_fields_well_formed(self, counts):
        """For any observable count vector: entropy in [0, 1], shares in
        (0, 1], verdict one of the three labels."""
        if sum(counts) == 0:
            return  # rejected elsewhere; nothing to profile
        profile = profile_counts(counts)
        assert 0.0 <= profile.normalized_entropy <= 1.0 + 1e-12
        assert 0.0 < profile.top_key_share <= 1.0
        assert 0.0 < profile.head_share_1pct <= 1.0
        assert profile.verdict in ("uniform-flood", "concentrated", "skewed-benign")

    @given(
        distinct=st.integers(min_value=2, max_value=500),
        per_key=st.integers(min_value=1, max_value=50),
    )
    @settings(max_examples=40, deadline=None)
    def test_exactly_uniform_counts_have_entropy_one(self, distinct, per_key):
        profile = profile_counts([per_key] * distinct)
        assert profile.normalized_entropy == pytest.approx(1.0)
        assert profile.verdict == "uniform-flood"
