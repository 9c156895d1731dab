"""Differential suite: the busy-period queue pass against the scalar drain.

:func:`repro.sim.kernel._busy_period_pass` settles every node's FIFO
queue in one vectorized pass, and hands a node to the scalar
:func:`repro.sim.kernel._fifo_drain` when it cannot vouch for it.  Two
properties must hold on any input:

- a node the pass keeps has departures equal to the scalar drain's,
  bit for bit;
- a node whose scalar drain drops a request is never kept.

The hypothesis strategy places arrivals exactly at departure times,
draws zero service times (equal departures), deterministic service and
``queue_limit`` in {0, 1, 2, 64}, and shrinks the pass's block size so
that blocks split the input between and inside nodes.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import kernel
from repro.sim.kernel import _busy_period_pass, _fifo_drain, _lindley_starts


def _drain_both(node_times, services, queue_limit, skip=(), block=None):
    """Run the pass and the per-node scalar drain; compare every node.

    ``services`` is one float (deterministic service) or a list of
    per-node service-time lists.  Returns the pass's fallback mask and
    the scalar drains' dropped positions per node.
    """
    counts = [len(times) for times in node_times]
    bounds = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    times = np.array([t for node in node_times for t in node], dtype=float)
    deterministic = isinstance(services, float)
    service = services if deterministic else np.array(
        [s for node in services for s in node], dtype=float
    )
    forced = np.zeros(len(node_times), dtype=bool)
    forced[list(skip)] = True
    with mock.patch.object(kernel, "_DRAIN_BLOCK", block or kernel._DRAIN_BLOCK):
        departures, scalar = _busy_period_pass(
            times, service, bounds, queue_limit, forced
        )
    assert scalar[forced].all()
    drops = []
    for node, arrivals in enumerate(node_times):
        expected, dropped, lost, started = _fifo_drain(
            list(arrivals),
            services if deterministic else list(services[node]),
            queue_limit,
        )
        assert not lost and started == len(expected)
        if dropped:
            assert scalar[node], "a node that drops must take the scalar drain"
        if not scalar[node]:
            got = departures[bounds[node]:bounds[node + 1]].tolist()
            assert got == expected  # exact float equality
        drops.append(dropped)
    return scalar, drops


_SERVICE = st.one_of(
    st.just(0.0), st.floats(min_value=0.0, max_value=0.5, allow_subnormal=False)
)
_GAP = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=0.05, allow_subnormal=False),
    st.floats(min_value=0.0, max_value=1.0, allow_subnormal=False),
)
#: About one arrival in five is drawn onto a departure time.
_TIE = st.sampled_from([True, False, False, False, False])


@st.composite
def _drains(draw):
    """Per-node arrival and service times, a queue limit and a block size.

    With its tie flag set, an arrival lands exactly at the departure of
    the node's previous request (under no drops), when that lies ahead.
    """
    deterministic = draw(st.booleans())
    constant = draw(_SERVICE)
    node_times, services = [], []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        size = draw(st.integers(min_value=0, max_value=40))
        service = (
            [constant] * size if deterministic
            else draw(st.lists(_SERVICE, min_size=size, max_size=size))
        )
        gaps = draw(st.lists(_GAP, min_size=size, max_size=size))
        ties = draw(st.lists(_TIE, min_size=size, max_size=size))
        clock, previous, arrivals = 0.0, None, []
        for gap, tie, s in zip(gaps, ties, service):
            if tie and previous is not None and previous >= clock:
                clock = previous
            else:
                clock += gap
            arrivals.append(clock)
            start = previous if previous is not None and previous >= clock else clock
            previous = start + s
        node_times.append(arrivals)
        services.append(service)
    return dict(
        node_times=node_times,
        services=constant if deterministic else services,
        queue_limit=draw(st.sampled_from([0, 1, 2, 64])),
        block=draw(st.sampled_from([1, 3, 16, None])),
    )


class TestBusyPeriodPass:
    @given(_drains())
    @settings(max_examples=150, deadline=None)
    def test_matches_scalar_drain(self, drawn):
        _drain_both(**drawn)

    @pytest.mark.slow
    @given(_drains())
    @settings(max_examples=1000, deadline=None)
    def test_matches_scalar_drain_sweep(self, drawn):
        _drain_both(**drawn)

    def test_arrival_exactly_at_a_departure_still_finds_it(self):
        # 0.25 + 0.5 is exact: the second arrival meets the first request
        # as it departs, so with no queue it is dropped.
        for queue_limit in (0, 1):
            scalar, drops = _drain_both([[0.25, 0.75]], [[0.5, 0.5]], queue_limit)
            assert bool(drops[0]) == (queue_limit == 0)
            assert scalar[0] == (queue_limit == 0)

    def test_zero_service_gives_equal_departures(self):
        scalar, _ = _drain_both([[1.0, 1.0, 1.0, 2.0]], [[0.0, 0.0, 0.0, 0.0]], 64)
        assert not scalar[0]

    def test_deterministic_service(self):
        scalar, _ = _drain_both([[0.0, 0.1, 0.2, 5.0], [0.3]], 0.25, 64)
        assert not scalar.any()

    def test_period_of_queue_limit_plus_one_stays_vector(self):
        # Three requests in one busy period fit a queue of two.
        scalar, drops = _drain_both([[0.0, 0.1, 0.2]], [[1.0, 1.0, 1.0]], 2)
        assert drops == [[]] and not scalar[0]

    @pytest.mark.parametrize("queue_limit", [0, 1, 2, 64])
    def test_longer_busy_period_falls_back(self, queue_limit):
        size = queue_limit + 2
        times = [0.01 * k for k in range(size)]
        scalar, drops = _drain_both([times, [0.0]], [[1.0] * size, [1.0]], queue_limit)
        assert drops[0] == [size - 1]
        assert scalar.tolist() == [True, False]

    @pytest.mark.parametrize(
        "t, s",
        [
            # An arrival 1 ulp after the previous departure starts a new
            # period; the closed form sees none.
            ([0.59, 0.8500000000000001], [0.26, 0.84]),
            # An arrival exactly at the previous departure joins its
            # period; the closed form sees a new one.
            ([0.51, 1.46], [0.95, 0.14]),
        ],
        ids=["ulp-after", "exact-tie"],
    )
    def test_closed_form_near_tie_is_caught(self, t, s):
        truth = t[1] > t[0] + s[0]
        guess = _lindley_starts(
            np.array(t), np.array(s), np.array([0]), np.array([2])
        )
        assert bool(guess[1]) != truth  # the guess is wrong here
        # Periods are short, so only the exact check can send it scalar.
        scalar, drops = _drain_both([t], [s], 64)
        assert drops == [[]] and scalar[0]

    def test_skipped_nodes_stay_scalar(self):
        scalar, _ = _drain_both([[0.0], [0.5], []], [[0.1], [0.1], []], 64, skip=(1, 2))
        assert scalar.tolist() == [False, True, True]

    def test_hot_nodes(self):
        """ROADMAP item 6's hot-node shape: 10% of 400k exponential
        arrivals on 5 of 1000 nodes, queue limit 64, service at 4x the
        mean per-node rate.  The hot nodes overflow and go scalar; the
        rest match the scalar drain exactly."""
        rng = np.random.default_rng(2013)
        n, size, rate = 1000, 400_000, 1e5
        arrivals = np.cumsum(rng.exponential(1.0 / rate, size))
        hot = rng.random(size) < 0.1
        node = np.where(hot, rng.integers(0, 5, size), rng.integers(5, n, size))
        service = rng.exponential(n / (4.0 * rate), size)
        order = np.argsort(node, kind="stable")
        node_times = np.split(arrivals[order], np.cumsum(np.bincount(node, minlength=n))[:-1])
        services = np.split(service[order], np.cumsum(np.bincount(node, minlength=n))[:-1])
        scalar, drops = _drain_both(
            [times.tolist() for times in node_times],
            [times.tolist() for times in services], 64,
        )
        assert scalar[:5].all() and all(drops[:5])
        assert not scalar[5:].any()
