"""Tests for the reference scheduler and node queue model.

They are the per-event oracle (``tests/event_oracle.py``) the event
kernel is compared against, so their own semantics stay pinned here.
"""

import pytest

from event_oracle import EventScheduler, NodeServer, Request
from repro.exceptions import ConfigurationError, SimulationError


class TestEventScheduler:
    def test_fires_in_time_order(self):
        sched = EventScheduler()
        fired = []
        sched.schedule(3.0, lambda s, t: fired.append(("c", t)))
        sched.schedule(1.0, lambda s, t: fired.append(("a", t)))
        sched.schedule(2.0, lambda s, t: fired.append(("b", t)))
        assert sched.run() == 3
        assert fired == [("a", 1.0), ("b", 2.0), ("c", 3.0)]

    def test_ties_break_by_insertion_order(self):
        sched = EventScheduler()
        fired = []
        sched.schedule(1.0, lambda s, t: fired.append("first"))
        sched.schedule(1.0, lambda s, t: fired.append("second"))
        sched.run()
        assert fired == ["first", "second"]

    def test_callbacks_can_schedule_more(self):
        sched = EventScheduler()
        fired = []

        def cascade(s, t):
            fired.append(t)
            if t < 3:
                s.schedule(t + 1, cascade)

        sched.schedule(0.0, cascade)
        sched.run()
        assert fired == [0.0, 1.0, 2.0, 3.0]

    def test_until_leaves_future_events_queued(self):
        sched = EventScheduler()
        fired = []
        for t in (1.0, 2.0, 5.0):
            sched.schedule(t, lambda s, tt: fired.append(tt))
        assert sched.run(until=3.0) == 2
        assert sched.pending == 1
        assert sched.run() == 1

    def test_scheduling_in_the_past_rejected(self):
        sched = EventScheduler()
        sched.schedule(5.0, lambda s, t: None)
        sched.run()
        with pytest.raises(SimulationError):
            sched.schedule(4.0, lambda s, t: None)

    def test_max_events_guard(self):
        sched = EventScheduler()

        def forever(s, t):
            s.schedule(t, forever)  # same-time loop

        sched.schedule(0.0, forever)
        with pytest.raises(SimulationError):
            sched.run(max_events=100)

    def test_now_and_processed_track_progress(self):
        sched = EventScheduler()
        sched.schedule(7.5, lambda s, t: None)
        sched.run()
        assert sched.now == 7.5
        assert sched.processed == 1


class TestNodeServer:
    def _drive(self, server, arrivals):
        sched = EventScheduler()
        accepted = []

        def offer(key, t):
            def fire(s, now):
                accepted.append(server.arrive(s, Request(key=key, arrival_time=now)))

            sched.schedule(t, fire)

        for i, t in enumerate(arrivals):
            offer(i, t)
        sched.run()
        return accepted, sched

    def test_serves_everything_under_light_load(self):
        server = NodeServer(0, service_rate=100.0, queue_limit=10)
        accepted, _ = self._drive(server, [0.1 * i for i in range(20)])
        assert all(accepted)
        assert server.served == 20
        assert server.dropped == 0

    def test_deterministic_service_latency(self):
        # Single arrival: latency is exactly the service time 1/rate.
        server = NodeServer(0, service_rate=50.0)
        self._drive(server, [0.0])
        assert server.latencies == [pytest.approx(0.02)]

    def test_queueing_latency_accumulates(self):
        # Two arrivals at t=0: the second waits one service time.
        server = NodeServer(0, service_rate=10.0)
        self._drive(server, [0.0, 0.0])
        assert server.latencies[0] == pytest.approx(0.1)
        assert server.latencies[1] == pytest.approx(0.2)

    def test_drops_when_queue_full(self):
        # queue_limit=1: burst of 5 at t=0 -> 1 in service + 1 queued,
        # the other 3 dropped.
        server = NodeServer(0, service_rate=1.0, queue_limit=1)
        accepted, _ = self._drive(server, [0.0] * 5)
        assert accepted == [True, True, False, False, False]
        assert server.dropped == 3
        assert server.served == 2

    def test_zero_queue_limit_still_serves_in_service_slot(self):
        server = NodeServer(0, service_rate=1.0, queue_limit=0)
        accepted, _ = self._drive(server, [0.0, 0.0])
        assert accepted == [True, False]

    def test_utilization(self):
        server = NodeServer(0, service_rate=10.0)
        _, sched = self._drive(server, [0.0, 1.0])
        # Two services of 0.1s within ~1.1s of simulated time.
        assert server.utilization(sched.now) == pytest.approx(0.2 / sched.now)

    def test_exponential_service_reproducible(self):
        def run(seed):
            server = NodeServer(0, service_rate=10.0, service="exponential", rng=seed)
            self._drive(server, [0.05 * i for i in range(30)])
            return list(server.latencies)

        assert run(4) == run(4)
        assert run(4) != run(5)

    def test_outstanding_counter(self):
        server = NodeServer(0, service_rate=1.0, queue_limit=10)
        sched = EventScheduler()
        sched.schedule(0.0, lambda s, t: server.arrive(s, Request(0, t)))
        sched.schedule(0.0, lambda s, t: server.arrive(s, Request(1, t)))
        sched.run(until=0.5)
        assert server.outstanding == 2

    def test_latency_sample_cap(self):
        server = NodeServer(
            0, service_rate=1000.0, queue_limit=10, latency_sample_limit=5
        )
        self._drive(server, [0.01 * i for i in range(20)])
        assert len(server.latencies) == 5
        assert server.served == 20

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            NodeServer(0, service_rate=0.0)
        with pytest.raises(ConfigurationError):
            NodeServer(0, service_rate=1.0, queue_limit=-1)
        with pytest.raises(ConfigurationError):
            NodeServer(0, service_rate=1.0, service="weird")
