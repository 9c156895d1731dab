"""Property-based differential tests: the greedy d-choice kernel vs the
reference loops it replaced.

:func:`repro.ballsbins.allocation.greedy_loads` is the one greedy
placement loop in the package.  It promises *byte-identical* load
vectors — including first-candidate tie-breaking — to each loop that
used to run separately (kept in :mod:`placement_oracles`): unit-weight
``d_choice_allocate``, rate-weighted ``LeastLoadedKeyPinning`` and
failure-degraded ``DegradedGroups.least_loaded_loads``.  The scan under
it is generated per row width, so the properties draw ``d`` up to 10;
the event kernel's pin rule, which reads the scan's picks, is checked
against a per-key ``argmin``.  The scan streams its candidate columns as
narrowed ``memoryview`` objects; :class:`TestStreamedScanMatchesRows` holds it
to the per-row loop over ``tolist()`` rows, picks included, across id
widths, sentinels, weight kinds and memory layouts.  The tests draw random configurations
(plus tie-dense and all-dead ones) and compare ``tobytes()``; a single
off-by-one placement fails loudly.
"""

import math
from itertools import repeat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from placement_oracles import (
    d_choice_sequential,
    greedy_rows,
    ragged_least_loaded,
    sample_replica_groups_sorted,
    weighted_node_loads,
)

from repro.ballsbins.allocation import (
    _columns,
    d_choice_allocate,
    greedy_loads,
    greedy_scan,
    sample_replica_groups,
)
from repro.cluster.failures import degrade_groups
from repro.cluster.selection import LeastLoadedKeyPinning


def _assert_identical(choices: np.ndarray, bins: int) -> None:
    """``d_choice_allocate`` on a candidate matrix equals the reference loop."""
    balls, d = choices.shape
    kernel = d_choice_allocate(balls, bins, d, choices=choices)
    reference = d_choice_sequential(choices, bins)
    assert kernel.dtype == reference.dtype == np.int64
    assert kernel.tobytes() == reference.tobytes()
    assert int(kernel.sum()) == balls


@st.composite
def _configs(draw, max_balls=2000, min_balls=0):
    bins = draw(st.integers(min_value=2, max_value=200))
    d = draw(st.integers(min_value=2, max_value=min(6, bins)))
    balls = draw(st.integers(min_value=min_balls, max_value=max_balls))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return bins, d, balls, seed


class TestBatchedMatchesSequential:
    """Unit-weight ``d_choice_allocate`` against the sequential loop."""

    @given(_configs())
    @settings(max_examples=60, deadline=None)
    def test_random_configurations(self, config):
        bins, d, balls, seed = config
        choices = sample_replica_groups(balls, bins, d, rng=seed)
        _assert_identical(choices, bins)

    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.integers(min_value=2, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_collision_heavy_tiny_bin_space(self, seed, d):
        # Few bins + many balls: nearly every comparison is a tie, so
        # first-candidate tie-breaking carries all the weight.
        bins = d + 1
        choices = sample_replica_groups(500, bins, d, rng=seed)
        _assert_identical(choices, bins)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_with_replacement_duplicate_rows(self, seed):
        # distinct=False allows a ball to list the same bin twice.
        choices = sample_replica_groups(400, 10, 3, rng=seed, distinct=False)
        _assert_identical(choices, 10)

    def test_worst_case_all_same_candidates(self):
        # Every ball lists the identical candidate set.
        choices = np.tile(np.array([3, 1, 4], dtype=np.int64), (200, 1))
        _assert_identical(choices, 6)
        sequential = d_choice_sequential(choices, 6)
        # Ties go to the first listed candidate: 3 before 1 before 4.
        assert sequential[3] >= sequential[1] >= sequential[4]


_WEIGHTS = st.sampled_from(["equal", "random", "zero", "mixed"])


def _weights(kind: str, keys: int, gen: np.random.Generator) -> np.ndarray:
    if kind == "equal":
        return np.full(keys, 1e5 / 3.0)
    if kind == "random":
        return gen.random(keys) * 10.0
    if kind == "zero":
        return np.zeros(keys)
    # Zero and repeated weights interleaved: exact ties at every scale.
    return gen.integers(0, 3, size=keys).astype(float)


class TestGreedyLoadsMatchesOracles:
    """The weighted kernel and both weighted callers against the oracles."""

    @given(
        n=st.integers(min_value=1, max_value=60),
        d=st.integers(min_value=1, max_value=10),
        keys=st.integers(min_value=0, max_value=600),
        kind=_WEIGHTS,
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_weighted_node_loads(self, n, d, keys, kind, seed):
        gen = np.random.default_rng(seed)
        groups = gen.integers(0, n, size=(keys, d))
        rates = _weights(kind, keys, gen)
        expected = weighted_node_loads(groups, rates, n).tobytes()
        assert greedy_loads(groups, rates, n).tobytes() == expected
        policy = LeastLoadedKeyPinning()
        assert policy.node_loads(groups, rates, n).tobytes() == expected

    @given(
        d=st.integers(min_value=1, max_value=6),
        keys=st.integers(min_value=0, max_value=400),
        kind=_WEIGHTS,
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_tie_dense_tiny_bin_space(self, d, keys, kind, seed):
        gen = np.random.default_rng(seed)
        n = d + 1
        groups = sample_replica_groups(keys, n, d, rng=gen)
        rates = _weights(kind, keys, gen)
        assert (
            greedy_loads(groups, rates, n).tobytes()
            == weighted_node_loads(groups, rates, n).tobytes()
        )

    @given(
        n=st.integers(min_value=2, max_value=30),
        d=st.integers(min_value=1, max_value=10),
        keys=st.integers(min_value=0, max_value=400),
        failed_frac=st.floats(min_value=0.0, max_value=0.9),
        kind=_WEIGHTS,
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_degraded_least_loaded(self, n, d, keys, failed_frac, kind, seed):
        gen = np.random.default_rng(seed)
        d = min(d, n)
        groups = sample_replica_groups(keys, n, d, rng=gen)
        failed = gen.choice(n, size=int(failed_frac * n), replace=False).tolist()
        rates = _weights(kind, keys, gen)
        degraded = degrade_groups(groups, failed, n=n)
        assert (
            degraded.least_loaded_loads(rates, n).tobytes()
            == ragged_least_loaded(groups, failed, rates, n).tobytes()
        )

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_all_dead_rows(self, seed):
        # Half the nodes down on tiny groups: many keys lose every
        # replica, and survivors sit at every position of their row.
        gen = np.random.default_rng(seed)
        groups = sample_replica_groups(300, 8, 2, rng=gen)
        failed = gen.choice(8, size=4, replace=False).tolist()
        rates = gen.random(300)
        degraded = degrade_groups(groups, failed)
        assert degraded.unavailable.size > 0
        assert (
            degraded.least_loaded_loads(rates, 8).tobytes()
            == ragged_least_loaded(groups, failed, rates, 8).tobytes()
        )

    @given(
        n=st.integers(min_value=1, max_value=40),
        d=st.integers(min_value=1, max_value=10),
        keys=st.integers(min_value=0, max_value=400),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_pin_picks_match_argmin(self, n, d, keys, seed):
        # The event kernel's pin rule: integer weights over persistent,
        # non-zero counts, with the picks returned; the oracle is one
        # ``argmin`` (first minimum) per key, as the per-event scheduler.
        gen = np.random.default_rng(seed)
        groups = gen.integers(0, n, size=(keys, d))
        weights = gen.integers(0, 3, size=keys)
        start = gen.integers(0, 5, size=n)
        counts = start.tolist()
        picks = greedy_scan(counts, groups, weights.tolist(), picks=True)
        expected, expected_counts = [], start.copy()
        for row, weight in zip(groups, weights):
            pick = int(row[np.argmin(expected_counts[row])])
            expected.append(pick)
            expected_counts[pick] += weight
        assert picks == expected
        assert counts == expected_counts.tolist()

    @given(
        n=st.integers(min_value=1, max_value=60),
        d=st.integers(min_value=1, max_value=10),
        keys=st.integers(min_value=1, max_value=600),
        weight=st.sampled_from([1.0, 0.0, 1e5 / 3.0, 0.1]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_equal_weights_repeat_matches_list(self, n, d, keys, weight, seed):
        # Equal weights take the repeated-value path; the same rows (dead
        # ``-1`` entries included) through the list path give the same bytes.
        gen = np.random.default_rng(seed)
        groups = gen.integers(-1, n, size=(keys, d))
        rates = np.full(keys, weight)
        loads = [0.0] * n + [math.inf]
        greedy_scan(loads, groups, rates.tolist())
        expected = np.asarray(loads[:n], dtype=float).tobytes()
        assert greedy_loads(groups, rates, n).tobytes() == expected

    def test_every_replica_dead(self):
        groups = np.array([[0, 1], [1, 0]])
        degraded = degrade_groups(groups, [0, 1])
        loads = degraded.least_loaded_loads(np.ones(2), 3)
        assert loads.tobytes() == np.zeros(3).tobytes()


def _layout(groups: np.ndarray, kind: str) -> np.ndarray:
    """The same rows in C order, Fortran order or as a strided view."""
    if kind == "fortran":
        return np.asfortranarray(groups)
    if kind == "strided":
        return np.repeat(groups, 2, axis=0)[::2]
    return groups


class TestStreamedScanMatchesRows:
    """``greedy_scan`` on memoryview columns against :func:`greedy_rows`."""

    @given(
        n=st.sampled_from([1, 2, 7, 127, 128, 2**15 - 1, 2**15, 40_000]),
        d=st.sampled_from([1, 2, 3, 5]),
        keys=st.integers(min_value=0, max_value=400),
        kind=st.sampled_from(["unit", "equal", "mixed", "random"]),
        sentinel=st.booleans(),
        layout=st.sampled_from(["c", "fortran", "strided"]),
        dtype=st.sampled_from([np.int64, np.int32]),
        picks=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=120, deadline=None)
    def test_scan(self, n, d, keys, kind, sentinel, layout, dtype, picks, seed):
        # With ``sentinel`` the ids run over [-1, n] and slot n holds
        # +inf, as the chaos path lays them out; both -1 and n name it.
        gen = np.random.default_rng(seed)
        low, high = (-1, n + 1) if sentinel else (0, n)
        groups = _layout(gen.integers(low, high, size=(keys, d)).astype(dtype), kind=layout)
        if kind == "unit":
            start = gen.integers(0, 3, size=n).tolist()
            weights, streamed = [1] * keys, repeat(1, keys)
        else:
            start = gen.integers(0, 3, size=n).astype(float).tolist()
            weights = _weights(kind, keys, gen)
            streamed = memoryview(weights)
            weights = weights.tolist()
        if sentinel:
            start.append(math.inf)
        loads, expected = list(start), list(start)
        expected_picks = greedy_rows(expected, groups, weights)
        got = greedy_scan(loads, groups, streamed, picks=picks)
        assert got == (expected_picks if picks else None)
        assert loads == expected
        assert np.asarray(loads).tobytes() == np.asarray(expected).tobytes()

    @given(
        n=st.sampled_from([3, 200, 2**15 + 5]),
        d=st.sampled_from([1, 2, 3, 5]),
        keys=st.integers(min_value=1, max_value=300),
        wtype=st.sampled_from([np.float64, np.float32, np.int64]),
        layout=st.sampled_from(["c", "fortran", "strided"]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_greedy_loads_weight_dtypes(self, n, d, keys, wtype, layout, seed):
        # Non-uniform weights stream as float64; the loop over their own
        # ``tolist()`` values (ints or float32s widened) gives the same bytes.
        gen = np.random.default_rng(seed)
        groups = _layout(gen.integers(-1, n + 1, size=(keys, d)), layout)
        rates = gen.integers(0, 4, size=keys).astype(wtype)
        if wtype is np.float32:
            rates = rates / np.float32(3)
        expected = [0.0] * n + [math.inf]
        greedy_rows(expected, groups, rates.tolist())
        got = greedy_loads(groups, rates, n)
        assert got.tobytes() == np.asarray(expected[:n], dtype=float).tobytes()

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    @pytest.mark.parametrize("layout", ["c", "fortran"])
    def test_empty_groups(self, d, layout):
        groups = _layout(np.zeros((0, d), dtype=np.int64), layout)
        loads = [1.0, 2.0]
        assert greedy_scan(loads, groups, [], picks=True) == []
        assert loads == [1.0, 2.0]
        assert greedy_loads(groups, np.zeros(0), 2).tobytes() == np.zeros(2).tobytes()

    @pytest.mark.parametrize(
        "high, itemsize",
        [(0, 1), (127, 1), (128, 2), (2**15 - 1, 2), (2**15, 4), (2**31, 8)],
    )
    def test_narrowest_id_type(self, high, itemsize):
        groups = np.array([[-1, high], [0, 1]], dtype=np.int64)
        columns = _columns(groups)
        assert [c.itemsize for c in columns] == [itemsize, itemsize]
        assert [c.tolist() for c in columns] == groups.T.tolist()

    @pytest.mark.parametrize(
        "bad", [2**16 + 3, -(2**16 + 2), 2**40, -(2**40)]
    )
    def test_out_of_range_id_raises(self, bad):
        # 2**16 + 3 would wrap to 3 in 16 bits, a valid slot: the
        # narrowed copy must keep it out of range instead.
        loads = [0.0] * (2**16 + 1)
        groups = np.array([[0, 1], [2, bad]], dtype=np.int64)
        with pytest.raises(IndexError):
            greedy_scan(loads, groups, [1.0, 1.0])
        with pytest.raises(IndexError):
            greedy_loads(groups, np.array([1.0, 2.0]), 2**16)

    def test_out_of_range_unsigned_id_raises(self):
        groups = np.array([[0, 2**63 + 5]], dtype=np.uint64)
        with pytest.raises(IndexError):
            greedy_scan([0.0, 0.0], groups, [1.0])

    def test_non_integer_ids_rejected(self):
        with pytest.raises(TypeError):
            greedy_scan([0.0, 0.0], np.array([[0.0, 1.0]]), [1.0])


class TestSampleReplicaGroupsMatchesOracle:
    """The pairwise duplicate check redraws exactly the sorted check's rows."""

    @given(
        bins=st.integers(min_value=1, max_value=50),
        d_frac=st.floats(min_value=0.0, max_value=1.0),
        balls=st.integers(min_value=1, max_value=2000),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_identical_groups(self, bins, d_frac, balls, seed):
        d = 1 + round(d_frac * (min(bins, 6) - 1))
        groups = sample_replica_groups(balls, bins, d, rng=np.random.default_rng(seed))
        expected = sample_replica_groups_sorted(balls, bins, d, seed)
        assert groups.dtype == np.int64
        assert groups.tobytes() == expected.tobytes()

    def test_exhausted_rounds_fall_back_identically(self):
        # d == bins == 5: a row is distinct with probability 5!/5**5, so
        # some rows survive all 64 redraw rounds.
        groups = sample_replica_groups(2000, 5, 5, rng=np.random.default_rng(1))
        expected = sample_replica_groups_sorted(2000, 5, 5, 1)
        assert groups.tobytes() == expected.tobytes()
        assert all(len(set(row)) == 5 for row in groups.tolist())


@pytest.mark.slow
class TestBatchedMatchesSequentialSlow:
    """Paper-scale sweeps."""

    @given(_configs(max_balls=30_000, min_balls=4096))
    @settings(max_examples=15, deadline=None)
    def test_large_random_configurations(self, config):
        bins, d, balls, seed = config
        choices = sample_replica_groups(balls, bins, d, rng=seed)
        _assert_identical(choices, bins)
