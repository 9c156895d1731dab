"""Differential suite: the recorder's column attribution must equal the
per-request loop.

:meth:`repro.obs.trace.FlightRecorder.observe` and
:meth:`~repro.obs.trace.FlightRecorder.from_export` attribute a whole
trial at once.  They promise the same ``records``, returned summaries,
``summaries``, ``alerts``, ``suspects()``, ``summary()`` and ``write()``
JSONL — compared as JSON text, so bitwise for floats and exact for key
order and int/float types — as :class:`ReferenceRecorder`, the
per-request loop kept in ``tests/trace_oracle.py``.  Each case is
checked three ways: one recorder observing every run, per-run recorders
merged in trial order (the campaign path), and offline replays of the
exported trace with and without the runs' durations.  Cases come from
hand columns (retries, unavailable requests, layered hits, empty runs,
a one-key run, the ``min_samples`` edge, a key sketch that evicts) and
from the event kernel's runs of Zipf and uniform traffic through an
LRU cache with chaos.
"""

import dataclasses
import functools
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from event_oracle import hand_columns
from trace_oracle import ReferenceRecorder
from repro.cache.lru import LRUCache
from repro.chaos.config import ChaosConfig
from repro.cluster.partitioner import ConsistentHashPartitioner, HashPartitioner
from repro.core.notation import SystemParameters
from repro.obs import RunContext
from repro.obs.columns import DROPPED, HIT, LOST, RETRIED, SERVED, UNAVAILABLE
from repro.obs.trace import FlightRecorder, TraceConfig
from repro.scenario.campaign import run_scenario
from repro.scenario.spec import ScenarioSpec
from repro.sim.eventsim import EventDrivenSimulator
from repro.workload.adversarial import AdversarialDistribution
from repro.workload.zipf import ZipfDistribution


def _written(recorder) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        return recorder.write(Path(tmp) / "trace.jsonl").read_text(encoding="utf-8")


def _view(recorder) -> str:
    """Everything a recorder reports, as one JSON text."""
    return json.dumps({
        "records": recorder.records,
        "summaries": recorder.summaries,
        "alerts": recorder.alerts,
        "suspects": recorder.suspects(),
        "summary": recorder.summary(),
        "jsonl": _written(recorder),
    })


def _replays(path, durations):
    """Offline replays of ``path`` by both recorders, as views."""
    return [_view(cls.from_export(path, durations)) for cls in (FlightRecorder, ReferenceRecorder)]


def assert_recorders_agree(config, runs):
    """Feed ``runs`` (``(columns, mask, observe keywords)`` triples) to a
    new and a reference recorder, live, merged and replayed offline, and
    compare everything either one reports."""
    views = {}
    for cls in (FlightRecorder, ReferenceRecorder):
        live = cls(config)
        returned = [live.observe(columns, mask, **run) for columns, mask, run in runs]
        merged = cls(config)
        for columns, mask, run in runs:
            trial = cls(config)
            trial.observe(columns, mask, **run)
            merged.merge_trial(trial)
        views[cls] = (json.dumps(returned), _view(live), _view(merged))
    assert views[FlightRecorder] == views[ReferenceRecorder]
    # The campaign path reports what one recorder does.
    assert views[FlightRecorder][1] == views[FlightRecorder][2]
    with tempfile.TemporaryDirectory() as tmp:
        path = FlightRecorder(config)
        for columns, mask, run in runs:
            path.observe(columns, mask, **run)
        path = path.write(Path(tmp) / "trace.jsonl")
        durations = {int(columns.trial): columns.duration for columns, _, _ in runs}
        for given_durations in (None, durations):
            new, ref = _replays(path, given_durations)
            assert new == ref


def _all(columns):
    return np.ones(columns.time.size, dtype=bool)


#: Replica groups of keys 0..63 on 4 nodes, as a vectorized lookup.
GROUPS = np.array([[k % 4, (k + 1) % 4] for k in range(64)], dtype=np.int64)
group_of = functools.partial(np.take, GROUPS, axis=0)

CONFIG = TraceConfig(window=0.5, top_k=2, min_samples=3, prefix_buckets=8)
RUN = dict(m=64, client_map=np.arange(64) % 3, group_of=group_of)


class TestHandCases:
    """The edge cases attribution has to get right, one at a time."""

    def test_retries_and_unavailable_requests(self):
        columns = hand_columns(
            [0.1, 0.2, 0.3, 0.4, 0.6], [5, 6, 5, 7, 9],
            outcome=[RETRIED, 0, RETRIED, UNAVAILABLE, 1],
            retry_time=[0.9, 1.7], retry_request=[0, 2], retry_node=[2, -1],
            dispatch_request=[1, 4, 0], dispatch_node=[0, 1, 2],
            dispatch_attempt=[1, 1, 2], dispatch_start=[0.2, np.nan, 0.95],
            dispatch_departure=[0.25, np.nan, 1.0],
            dispatch_status=[SERVED, DROPPED, SERVED],
            event_time=[0.05], event_node=[2], event_up=[False], duration=1.8,
        )
        assert_recorders_agree(CONFIG, [(columns, _all(columns), dict(RUN, chaos=True))])

    def test_layered_hits_and_lost_dispatches(self):
        columns = hand_columns(
            [0.1, 0.2, 0.4, 0.8, 0.9], [1, 2, 1, 3, 1],
            outcome=[HIT, HIT, 0, HIT, 3],
            layer=[0, 1, -1, -1, -1], shard=[1, 0, -1, -1, -1],
            dispatch_request=[2, 4], dispatch_node=[0, 3], dispatch_attempt=[1, 1],
            dispatch_start=[np.nan, 0.9], dispatch_departure=[np.nan, 1.1],
            dispatch_status=[LOST, SERVED],
        )
        assert_recorders_agree(CONFIG, [(columns, _all(columns), RUN)])

    def test_empty_runs(self):
        empty = hand_columns([], [])
        events_only = hand_columns([], [], event_time=[0.0], event_node=[0],
                                   event_up=[False])
        masked_out = hand_columns([0.2, 0.3], [1, 2], outcome=[0, HIT])
        retried_only = hand_columns([0.2], [1], outcome=[RETRIED], trial=3)
        assert_recorders_agree(CONFIG, [
            (empty, _all(empty), RUN),
            (events_only, _all(events_only), dict(RUN, chaos=True)),
            (masked_out, np.zeros(2, dtype=bool), RUN),
            (retried_only, _all(retried_only), RUN),
        ])

    def test_one_key_run(self):
        columns = hand_columns([0.1 * k for k in range(12)], [4] * 12,
                               outcome=[HIT, 0] * 6)
        assert_recorders_agree(CONFIG, [(columns, _all(columns), RUN)])

    def test_window_of_exactly_min_samples(self):
        # Window 0 holds min_samples records of one prefix and fires;
        # window 1 holds one fewer and does not.
        keys = [1, 2, 3, 9, 10]
        columns = hand_columns([0.1, 0.2, 0.3, 0.6, 0.7], keys, duration=0.75)
        assert_recorders_agree(CONFIG, [(columns, _all(columns), RUN)])
        alerts = FlightRecorder(CONFIG).observe(columns, _all(columns), **RUN)["alerts"]
        assert [alert["window"] for alert in alerts] == [0]

    def test_prefix_ties_go_to_the_smaller_prefix(self):
        columns = hand_columns([0.1, 0.2, 0.3, 0.4], [40, 0, 41, 1])
        config = dataclasses.replace(CONFIG, min_samples=0, concentration_threshold=0.5)
        assert_recorders_agree(config, [(columns, _all(columns), RUN)])

    def test_sketch_evicts(self):
        # 40 distinct keys against the 16 counters of top_k = 2.
        keys = [(7 * k) % 40 for k in range(120)] + [3] * 30
        columns = hand_columns(sorted(0.01 * k for k in range(150)), keys)
        other = hand_columns([0.05 * k for k in range(60)], [k % 25 for k in range(60)], trial=1)
        assert_recorders_agree(CONFIG, [
            (columns, _all(columns), RUN), (other, _all(other), RUN),
        ])
        suspects = FlightRecorder(CONFIG).observe(columns, _all(columns), **RUN)["suspects"]
        assert all(row["error"] > 0 for row in suspects["keys"])

    def test_without_client_map_group_or_attribution(self):
        columns = hand_columns([0.1, 0.6, 1.1], [3, 3, 60], outcome=[0, 1, HIT])
        bare = dict(m=64)
        assert_recorders_agree(CONFIG, [(columns, _all(columns), bare)])
        off = dataclasses.replace(CONFIG, attribution=False)
        assert_recorders_agree(off, [(columns, _all(columns), RUN)])

    def test_ring_evicts(self):
        columns = hand_columns([0.1 * k for k in range(10)], list(range(10)))
        config = dataclasses.replace(CONFIG, capacity=4)
        assert_recorders_agree(config, [
            (columns, _all(columns), RUN),
            (dataclasses.replace(columns, trial=1), _all(columns), RUN),
        ])


@st.composite
def _runs(draw):
    """One to three hand-built runs over a shared system and config."""
    n = draw(st.integers(1, 4))
    m = draw(st.sampled_from([8, 64]))
    quantum = draw(st.sampled_from([0.1, 0.25, 0.3]))
    layered = draw(st.booleans())
    client_map = draw(st.sampled_from([None, np.arange(m) % 3, np.arange(m) // 5]))
    runs = []
    for trial in range(draw(st.integers(1, 3))):
        size = draw(st.integers(0, 40))
        ticks = sorted(draw(st.lists(st.integers(0, 20), min_size=size, max_size=size)))
        time = [quantum * tick for tick in ticks]
        key = draw(st.lists(st.integers(0, m - 1), min_size=size, max_size=size))
        outcome = draw(st.lists(
            st.sampled_from([HIT, UNAVAILABLE, RETRIED, *range(n)]),
            min_size=size, max_size=size,
        ))
        retried = [i for i, o in enumerate(outcome) if o == RETRIED]
        delays = draw(st.lists(st.integers(0, 8), min_size=len(retried), max_size=len(retried)))
        retries = sorted(
            (time[i] + quantum * delay, i, draw(st.integers(-1, n - 1)))
            for i, delay in zip(retried, delays)
        )
        dispatched = [i for i, o in enumerate(outcome) if o >= 0]
        dispatched += [r[1] for r in retries if r[2] >= 0]
        status = draw(st.lists(st.sampled_from([SERVED, SERVED, DROPPED, LOST]),
                               min_size=len(dispatched), max_size=len(dispatched)))
        served = [s == SERVED for s in status]
        start = [time[i] + quantum * draw(st.integers(0, 3)) if ok else np.nan
                 for i, ok in zip(dispatched, served)]
        n_events = draw(st.integers(0, 3))
        events = sorted(
            (quantum * tick, node, up) for tick, node, up in zip(
                draw(st.lists(st.integers(0, 20), min_size=n_events, max_size=n_events)),
                draw(st.lists(st.integers(0, n - 1), min_size=n_events, max_size=n_events)),
                draw(st.lists(st.booleans(), min_size=n_events, max_size=n_events)),
            )
        )
        fields = dict(
            trial=trial, outcome=outcome,
            retry_time=[r[0] for r in retries], retry_request=[r[1] for r in retries],
            retry_node=[r[2] for r in retries],
            dispatch_request=dispatched, dispatch_node=[0] * len(dispatched),
            dispatch_attempt=[1] * len(dispatched), dispatch_start=start,
            dispatch_departure=[s + quantum for s in start], dispatch_status=status,
            event_time=[e[0] for e in events], event_node=[e[1] for e in events],
            event_up=[e[2] for e in events],
        )
        if layered:
            layer = [draw(st.integers(-1, 1)) if o == HIT else -1 for o in outcome]
            fields["layer"] = layer
            fields["shard"] = [draw(st.integers(0, 2)) if lay >= 0 else -1 for lay in layer]
        if draw(st.booleans()) and time:
            fields["duration"] = time[-1] + quantum * draw(st.integers(0, 3))
        columns = hand_columns(time, key, **fields)
        mask = np.ones(size, dtype=bool)
        if draw(st.booleans()):
            mask = np.array(draw(st.lists(st.booleans(), min_size=size, max_size=size)),
                            dtype=bool)
        run = dict(m=m, chaos=draw(st.booleans()), client_map=client_map,
                   group_of=draw(st.sampled_from([None, group_of])))
        runs.append((columns, mask, run))
    config = TraceConfig(
        window=draw(st.sampled_from([0.3, 0.5, 0.7, 1.0, 100.0])),
        top_k=draw(st.sampled_from([1, 2, 8])),
        prefix_buckets=draw(st.sampled_from([1, 4, 64])),
        concentration_threshold=draw(st.sampled_from([0.3, 0.5, 1.0])),
        min_samples=draw(st.integers(0, 4)),
        capacity=draw(st.sampled_from([5, 65536])),
        attribution=draw(st.sampled_from([True, True, True, False])),
    )
    return config, runs


@given(_runs())
@settings(max_examples=300, deadline=None)
def test_hand_columns_agree(case):
    config, runs = case
    assert_recorders_agree(config, runs)


PARAMS = SystemParameters(n=16, m=400, c=8, d=3, rate=2000.0)
DISTRIBUTIONS = {
    "zipf": lambda: ZipfDistribution(PARAMS.m, 1.01),
    "uniform": lambda: AdversarialDistribution(PARAMS.m, PARAMS.m),
    "flood": lambda: AdversarialDistribution(PARAMS.m, PARAMS.c + 1),
}
PARTITIONERS = {
    "random-table": lambda: None,
    "hash": lambda: HashPartitioner(PARAMS.n, PARAMS.d),
    "consistent-hash": lambda: ConsistentHashPartitioner(PARAMS.n, PARAMS.d, vnodes=8),
}


@functools.lru_cache(maxsize=None)
def _kernel_runs(dist, partitioner, sample, seed, queries=3000, trials=3):
    """The runs as the event kernel hands them to the recorder: Zipf or
    uniform traffic through an LRU cache with chaos."""
    runs = []
    observe = FlightRecorder.observe

    def capture(self, columns, mask, **run):
        runs.append((columns, mask, run))
        return observe(self, columns, mask, **run)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FlightRecorder, "observe", capture)
        recorder = FlightRecorder(TraceConfig(sample=sample), seed=seed)
        sim = EventDrivenSimulator(
            PARAMS, DISTRIBUTIONS[dist](), seed=seed, cache=LRUCache(PARAMS.c),
            chaos=ChaosConfig(failure_rate=2.0, mttr=0.2),
            partitioner=PARTITIONERS[partitioner](),
            context=RunContext(trace=recorder),
        )
        for trial in range(trials):
            sim.run(queries, trial=trial)
    assert len(runs) == trials
    return tuple(runs)


#: Windows from a few requests each to the whole run.
WINDOWS = (0.003, 0.1, 100.0)


@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("sample", [0.01, 1.0])
@pytest.mark.parametrize("dist", ["zipf", "uniform"])
def test_kernel_runs_agree(dist, sample, window):
    config = TraceConfig(sample=sample, window=window, min_samples=4)
    assert_recorders_agree(config, _kernel_runs(dist, "random-table", sample, 5))


@pytest.mark.parametrize("partitioner", ["hash", "consistent-hash"])
def test_kernel_runs_agree_hashed_partitioners(partitioner):
    config = TraceConfig(sample=0.2, window=0.1, top_k=2)
    runs = _kernel_runs("zipf", partitioner, 0.2, 5, queries=1500, trials=2)
    assert_recorders_agree(config, runs)


def _campaign_spec(workers, **overrides):
    data = {
        "scenario": 1,
        "name": "trace/differential",
        "system": {"n": 16, "m": 400, "c": 8, "d": 3, "rate": 2000.0},
        "workload": {"kind": "zipf", "s": 1.01},
        "cache": "lru",
        "chaos": {"kind": "renewal", "failure_rate": 1.0, "mttr": 0.2},
        "engine": "event-driven",
        "trace": {"kind": "hash", "sample": 0.3, "window": 0.05, "top_k": 2},
        "trials": 5,
        "queries": 1500,
        "seed": 21,
        "workers": workers,
    }
    data.update(overrides)
    return ScenarioSpec.from_dict(data)


def _campaign_view(spec):
    return _view(run_scenario(spec).trace)


@pytest.mark.parametrize("workers", [1, 4])
def test_campaign_agrees(workers):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.scenario.campaign.FlightRecorder", ReferenceRecorder)
        patch.setattr("repro.obs.context.FlightRecorder", ReferenceRecorder)
        reference = _campaign_view(_campaign_spec(1))
    assert _campaign_view(_campaign_spec(workers)) == reference


@pytest.mark.slow
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("sample", [0.01, 0.3, 1.0])
@pytest.mark.parametrize("dist", sorted(DISTRIBUTIONS))
def test_kernel_runs_agree_sweep(dist, sample, window, seed):
    for top_k in (1, 8):
        config = TraceConfig(sample=sample, window=window, top_k=top_k, min_samples=8)
        assert_recorders_agree(config, _kernel_runs(dist, "random-table", sample, seed))
