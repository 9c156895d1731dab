"""The column hand-off: :class:`repro.obs.columns.TrialColumns`.

:meth:`TrialColumns.event_order` places the few node events and retries
among the already-sorted arrivals with ``searchsorted``; it must equal a
full lexsort of every event on ``(time, class, index)``.  The oracle's
firing order is checked against it in the differential suites; here it
is checked against the lexsort directly, on the ties that decide it.
:meth:`TrialColumns.request_stream`, the request columns the monitor and
the flight recorder both read, is checked on the cases that shape it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from event_oracle import hand_columns
from repro.chaos.config import ChaosConfig
from repro.cache.lru import LRUCache
from repro.core.notation import SystemParameters
from repro.obs import LoadMonitor, RunContext
from repro.obs.columns import HIT, RETRIED, UNAVAILABLE, TrialColumns
from repro.sim.eventsim import EventDrivenSimulator
from repro.workload.adversarial import AdversarialDistribution


def _lexsorted(columns, mask=None):
    """Every kept event, fully sorted on ``(time, class, index)``."""
    n = columns.time.size
    keep = np.ones(n, dtype=bool) if mask is None else mask
    arrivals = np.flatnonzero(keep)
    retries = np.flatnonzero(keep[columns.retry_request])
    events = np.arange(columns.event_time.size)
    time = np.concatenate(
        [columns.event_time, columns.time[arrivals], columns.retry_time[retries]]
    )
    cls = np.repeat([0, 1, 2], [events.size, arrivals.size, retries.size])
    # Retries tie-break on their request index.
    tie = np.concatenate([events, arrivals, columns.retry_request[retries]])
    index = np.concatenate([events, arrivals, retries])
    order = np.lexsort((tie, cls, time))
    return cls[order].tolist(), index[order].tolist()


def _check(columns, mask=None):
    cls, index = columns.event_order(mask)
    assert cls.dtype == index.dtype == np.int64
    assert (cls.tolist(), index.tolist()) == _lexsorted(columns, mask)


def _columns(times, events=(), retries=()):
    """``retries`` are ``(time, request)`` pairs, put in event order."""
    retries = sorted(retries)
    return hand_columns(
        times, np.zeros(len(times)),
        retry_time=[t for t, _ in retries],
        retry_request=[i for _, i in retries],
        retry_node=[-1] * len(retries),
        event_time=list(events),
        event_node=[0] * len(events),
        event_up=[False] * len(events),
    )


@st.composite
def _runs(draw):
    """Arrivals, node events and retries on a coarse time grid, so that
    every kind of same-time tie is common."""
    grid = st.integers(min_value=0, max_value=8).map(lambda k: k * 0.25)
    times = sorted(draw(st.lists(grid, max_size=12)))
    events = sorted(draw(st.lists(grid, max_size=4)))
    retries = []
    if times:
        requests = draw(st.lists(
            st.integers(min_value=0, max_value=len(times) - 1),
            unique=True, max_size=4,
        ))
        retries = [(times[i] + draw(grid), i) for i in requests]
    mask = None
    if draw(st.booleans()):
        mask = np.array(draw(st.lists(
            st.booleans(), min_size=len(times), max_size=len(times)
        )), dtype=bool)
    return _columns(times, events, retries), mask


class TestEventOrder:
    @given(_runs())
    @settings(max_examples=300, deadline=None)
    def test_equals_full_lexsort(self, run):
        columns, mask = run
        _check(columns, mask)

    def test_node_event_at_exactly_an_arrival_time(self):
        columns = _columns([0.5, 1.0, 1.0, 2.0], events=[1.0])
        cls, index = columns.event_order()
        assert cls.tolist() == [1, 0, 1, 1, 1]
        assert index.tolist() == [0, 0, 1, 2, 3]
        _check(columns)

    def test_retry_at_exactly_an_arrival_time(self):
        columns = _columns([0.5, 1.0, 1.0, 2.0], retries=[(1.0, 0)])
        cls, index = columns.event_order()
        assert cls.tolist() == [1, 1, 1, 2, 1]
        assert index.tolist() == [0, 1, 2, 0, 3]
        _check(columns)

    def test_node_event_and_retry_at_one_arrival_time(self):
        columns = _columns([0.5, 1.0], events=[1.0], retries=[(1.0, 0)])
        cls, _ = columns.event_order()
        assert cls.tolist() == [1, 0, 1, 2]
        _check(columns)

    def test_no_extras(self):
        columns = _columns([0.1, 0.2, 0.2, 0.3])
        cls, index = columns.event_order()
        assert cls.tolist() == [1] * 4
        assert index.tolist() == [0, 1, 2, 3]
        _check(columns)

    def test_only_extras(self):
        _check(_columns([], events=[0.5, 0.5, 1.0]))
        columns = _columns([0.2, 0.7], events=[0.5], retries=[(0.9, 1)])
        nothing = np.zeros(2, dtype=bool)
        cls, index = columns.event_order(nothing)
        assert cls.tolist() == [0] and index.tolist() == [0]
        _check(columns, nothing)

    def test_mask_keeps_its_requests_retries(self):
        columns = _columns(
            [0.1, 0.2, 0.3], events=[0.25], retries=[(0.4, 0), (0.5, 2)]
        )
        cls, index = columns.event_order(np.array([False, True, True]))
        assert cls.tolist() == [1, 0, 1, 2]
        assert index.tolist() == [1, 0, 2, 1]


class TestRequestStream:
    """Requests at their final attempt, in event order."""

    # Request 0 is retried on node 2 at 0.9, request 2 finds no live
    # replica at 1.2; a node event falls at 0.4, tied with request 3.
    COLUMNS = hand_columns(
        [0.1, 0.2, 0.3, 0.4, 0.6], [5, 6, 7, 8, 9],
        outcome=[RETRIED, 0, RETRIED, 1, HIT],
        retry_time=[0.9, 1.2], retry_request=[0, 2], retry_node=[2, -1],
        event_time=[0.4, 1.0], event_node=[1, 1], event_up=[False, True],
    )

    def test_retries_count_at_their_own_time_and_node(self):
        stream = self.COLUMNS.request_stream()
        assert stream.request.tolist() == [1, 3, 4, 0, 2]
        assert stream.time.tolist() == [0.2, 0.4, 0.6, 0.9, 1.2]
        assert stream.key.tolist() == [6, 8, 9, 5, 7]
        assert stream.retry.tolist() == [False, False, False, True, True]

    def test_retried_first_attempts_are_left_out(self):
        stream = self.COLUMNS.request_stream()
        assert RETRIED not in stream.node.tolist()
        assert stream.node.tolist()[:3] == [0, 1, HIT]

    def test_a_retry_with_no_live_replica_is_unavailable(self):
        assert self.COLUMNS.request_stream().node.tolist()[3:] == [2, UNAVAILABLE]

    def test_node_events_tied_with_arrivals_come_first(self):
        # The event at 0.4 fires before request 3 arrives at 0.4: one
        # request (1) is ahead of it; the event at 1.0 has four, the
        # retry at 0.9 among them.
        stream = self.COLUMNS.request_stream()
        assert stream.events.tolist() == [0, 1]
        assert stream.before.tolist() == [1, 4]

    def test_a_masked_out_request_drops_its_retry(self):
        stream = self.COLUMNS.request_stream(np.array([False, True, True, False, True]))
        assert stream.request.tolist() == [1, 4, 2]
        assert stream.node.tolist() == [0, HIT, UNAVAILABLE]
        assert stream.retry.tolist() == [False, False, True]
        assert stream.before.tolist() == [1, 2]


class TestZeroCostDefault:
    """An uninstrumented run never builds the columns."""

    PARAMS = SystemParameters(n=20, m=500, c=10, d=3, rate=2000.0)

    @pytest.fixture
    def refuse(self, monkeypatch):
        def refuse(self, *args, **kwargs):
            raise AssertionError("TrialColumns built for an uninstrumented run")

        monkeypatch.setattr(TrialColumns, "__init__", refuse)

    def _run(self, **kwargs):
        return EventDrivenSimulator(
            self.PARAMS, AdversarialDistribution(500, 40), seed=3, **kwargs
        ).run(3000)

    def test_flood_builds_no_columns(self, refuse):
        # The event-flood shape: perfect cache, no chaos, no instrument.
        self._run()

    def test_lru_chaos_builds_no_columns(self, refuse):
        self._run(
            cache=LRUCache(10), chaos=ChaosConfig(failure_rate=2.0, mttr=0.2)
        )

    def test_an_instrument_builds_them(self, refuse):
        with pytest.raises(AssertionError, match="uninstrumented"):
            self._run(context=RunContext(monitor=LoadMonitor()))
