"""One event-driven run as columns: the one hand-off to the instruments.

With a monitor or a flight recorder attached, the event kernel hands
each run over once, as a :class:`TrialColumns` record: first to
``FlightRecorder.observe(columns, mask, ...)``, then to
``LoadMonitor.observe(columns, ..., trace=...)`` with the recorder's
summary.  Each call ingests the whole run and returns its summary; an
uninstrumented run builds no columns.  This module imports nothing from
:mod:`repro.sim`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

import numpy as np

__all__ = [
    "HIT", "RETRIED", "UNAVAILABLE", "SERVED", "DROPPED", "LOST", "RequestStream", "TrialColumns",
]

#: Request outcomes besides an attempt-1 node id: retried after its node
#: was found down, unavailable, or a front-end hit.
RETRIED = -1
UNAVAILABLE = -2
HIT = -3

#: Dispatch statuses: served, dropped by a full queue, lost in a crash.
SERVED = 0
DROPPED = 1
LOST = 2


class RequestStream(NamedTuple):
    """A run's requests in event order (:meth:`TrialColumns.request_stream`).

    Per request: its ``time``, ``key``, ``node`` (or :data:`HIT` /
    :data:`UNAVAILABLE`), arrival index ``request`` and whether it is a
    ``retry``.  Then the node events' indices in event order, ``events``,
    and for each the number of requests ahead of it, ``before``.
    """

    time: np.ndarray
    key: np.ndarray
    node: np.ndarray
    request: np.ndarray
    retry: np.ndarray
    events: np.ndarray
    before: np.ndarray


@dataclass(frozen=True, eq=False)
class TrialColumns:
    """One run's facts and parallel arrays, in four groups.

    ``trial`` is the run's trial index and ``duration`` its simulated
    length (the last arrival's time), where the run's final window
    closes.

    - Requests, in arrival order: ``outcome`` is the attempt-1 node, or
      :data:`RETRIED`, :data:`UNAVAILABLE` or :data:`HIT`; ``layer`` /
      ``shard`` give a layered cache tree's hits their path (``-1``
      elsewhere; ``None`` for flat caches).
    - Dispatches, attempt 1 in miss order, then failovers in arrival
      order.  One arriving at ``t`` starts at ``max(t, previous served
      departure on its node)``, or at ``t`` as its node's first; start
      and departure are NaN unless its status is :data:`SERVED`.
    - Retries, in event order; ``retry_node`` is ``-1`` when no
      replica was up.
    - Node crash / recover events, in event order.
    """

    trial: int
    duration: float
    time: np.ndarray
    key: np.ndarray
    outcome: np.ndarray
    layer: Optional[np.ndarray]
    shard: Optional[np.ndarray]
    dispatch_request: np.ndarray
    dispatch_node: np.ndarray
    dispatch_attempt: np.ndarray
    dispatch_start: np.ndarray
    dispatch_departure: np.ndarray
    dispatch_status: np.ndarray
    retry_time: np.ndarray
    retry_request: np.ndarray
    retry_node: np.ndarray
    event_time: np.ndarray
    event_node: np.ndarray
    event_up: np.ndarray

    def event_order(self, mask: Optional[np.ndarray] = None) -> Tuple[np.ndarray, np.ndarray]:
        """``(cls, index)`` of the run's events in ``(time, class, index)`` order.

        Class 0 is a node event (``index`` into ``event_*``), class 1 an
        arrival (a request index), class 2 a retry (``index`` into
        ``retry_*``): a node event fires before a same-time arrival, a
        retry after it.  ``mask`` (a boolean per request) keeps only
        those requests' arrivals and retries.  The arrivals are already
        sorted, so only the few extras are sorted, and ``searchsorted``
        places them among the arrivals.
        """
        keep = np.ones(self.time.size, dtype=bool) if mask is None else mask
        arrivals = np.flatnonzero(keep)
        retries = np.flatnonzero(keep[self.retry_request])
        events = np.arange(self.event_time.size)
        time = np.concatenate([self.event_time, self.retry_time[retries]])
        cls = np.repeat([0, 2], [events.size, retries.size])
        index = np.concatenate([events, retries])
        order = np.lexsort((index, cls, time))
        time, cls, index = time[order], cls[order], index[order]
        arrival_time = self.time[arrivals]
        at = np.where(
            cls == 0,
            np.searchsorted(arrival_time, time, side="left"),
            np.searchsorted(arrival_time, time, side="right"),
        )
        ones = np.ones(arrivals.size, dtype=np.int64)
        return np.insert(ones, at, cls), np.insert(arrivals, at, index)

    def request_stream(self, mask: Optional[np.ndarray] = None) -> RequestStream:
        """The requests of :meth:`event_order`, each at its final attempt.

        A retry counts at its own time on its node, or as unavailable
        when no replica was up; an arrival whose node was found down
        (:data:`RETRIED`) is left out.  ``mask`` keeps only those
        requests, as in :meth:`event_order`.
        """
        cls, index = self.event_order(mask)
        is_event = cls == 0
        events = index[is_event]
        place = np.flatnonzero(is_event) - np.arange(events.size)
        request = index[~is_event]
        retry = cls[~is_event] == 2
        rows = request[retry]
        request[retry] = self.retry_request[rows]
        time = self.time[request]
        time[retry] = self.retry_time[rows]
        node = self.outcome[request]
        node[retry] = np.where(self.retry_node[rows] < 0, UNAVAILABLE, self.retry_node[rows])
        kept = node != RETRIED
        before = np.cumsum(np.append(0, kept))[place]
        request = request[kept]
        return RequestStream(
            time[kept], self.key[request], node[kept], request, retry[kept], events, before
        )
