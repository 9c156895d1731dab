"""Differential suite: the monitor's column code must equal the per-event loop.

:meth:`repro.obs.monitor.LoadMonitor.observe` reads a whole run's
:class:`~repro.obs.columns.TrialColumns` at once.  It promises the same
event log (window, node-event, alert and run-summary records, in order),
the same returned run summaries, metrics, ``snapshot()`` and
``summary()`` — compared as JSON text, so bitwise for floats and exact
for key order and int/float types — as :class:`ReferenceMonitor`, the
per-event loop kept in ``tests/monitor_oracle.py``.  Cases come from hand
columns (ties, boundaries, retries, chaos, layered hits, empty runs) and
from the event kernel's runs of the instrument golden specs.
"""

import dataclasses
import functools
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from event_oracle import hand_columns
from monitor_oracle import ReferenceMonitor
from repro.obs import LoadMonitor, MetricsRegistry, MonitorConfig, RunContext
from repro.obs.columns import HIT, RETRIED, UNAVAILABLE
from repro.obs.export import export_json
from repro.scenario import load_spec, run_scenario
from repro.scenario.build import BuildContext, build_distribution

#: ``tests/golden/make_golden.py``'s ``INSTRUMENT_SPECS``, by file name.
GOLDEN = Path(__file__).parent / "golden"
SPECS = {
    path.name: path for path in (
        GOLDEN / "scenarios" / "chaos-on.yaml",
        GOLDEN / "scenarios" / "tree-paper-default.yaml",
        GOLDEN.parents[1] / "examples" / "specs" / "replay.yaml",
    )
}


def assert_monitors_agree(config, runs):
    """Feed ``runs`` (``(columns, observe keywords)`` pairs) to a new and
    a reference monitor, and compare everything either one reports."""
    monitors = []
    for cls in (LoadMonitor, ReferenceMonitor):
        metrics = MetricsRegistry()
        monitor = cls(config, metrics=metrics)
        returned = [monitor.observe(columns, **run) for columns, run in runs]
        monitors.append((monitor, metrics, returned))
    (new, new_metrics, new_returned), (ref, ref_metrics, ref_returned) = monitors
    assert json.dumps(new_returned) == json.dumps(ref_returned)
    assert json.dumps(new.events.records) == json.dumps(ref.events.records)
    assert json.dumps(new.snapshot()) == json.dumps(ref.snapshot())
    assert json.dumps(new.summary()) == json.dumps(ref.summary())
    assert json.dumps(export_json(new_metrics)) == json.dumps(export_json(ref_metrics))
    assert (new.bound, new.final_gain, new.max_gain) == (ref.bound, ref.final_gain, ref.max_gain)


CONFIG = MonitorConfig(window=0.5, c=1, d=3, x=6, entropy_min_keys=1)
RUN = dict(n=3, rate=4.0)


class TestHandCases:
    """The edge cases the window walk has to get right, one at a time."""

    def test_node_events_tied_with_arrivals(self):
        columns = hand_columns(
            [0.0, 0.5, 0.5, 1.0], [1, 2, 2, 3], outcome=[0, 1, HIT, 2],
            event_time=[0.5, 0.5, 1.0], event_node=[1, 2, 1],
            event_up=[False, False, True],
        )
        assert_monitors_agree(CONFIG, [(columns, dict(RUN, chaos=True))])

    def test_window_of_only_unavailable_requests(self):
        # Window 1 holds only unavailable requests: it emits nothing and
        # leaves the down-count maximum of window 0 standing.
        columns = hand_columns(
            [0.1, 0.6, 0.7, 1.2], [1, 2, 3, 4],
            outcome=[0, UNAVAILABLE, UNAVAILABLE, 1],
            event_time=[0.2, 0.3, 0.65], event_node=[2, 2, 1],
            event_up=[False, True, False],
        )
        assert_monitors_agree(CONFIG, [(columns, dict(RUN, chaos=True))])

    def test_arrivals_exactly_on_window_boundaries(self):
        width = 0.1
        config = dataclasses.replace(CONFIG, window=width)
        time = [k * width for k in range(12)] + [0.3, 0.30000000000000004]
        columns = hand_columns(sorted(time), [k % 4 for k in range(14)],
                               outcome=[k % 3 if k % 2 else HIT for k in range(14)])
        assert_monitors_agree(config, [(columns, RUN)])

    def test_retries_landing_in_a_later_window(self):
        columns = hand_columns(
            [0.1, 0.2, 0.3], [5, 6, 5], outcome=[RETRIED, 0, RETRIED],
            retry_time=[0.9, 1.7], retry_request=[0, 2], retry_node=[2, -1],
            event_time=[0.05], event_node=[2], event_up=[False],
        )
        assert_monitors_agree(CONFIG, [(columns, dict(RUN, chaos=True))])

    def test_layered_hits(self):
        columns = hand_columns(
            [0.1, 0.2, 0.4, 0.8, 0.9], [1, 2, 1, 3, 1],
            outcome=[HIT, HIT, 0, HIT, HIT],
            layer=[0, 1, -1, 0, 0], shard=[1, 0, -1, 0, 1],
        )
        assert_monitors_agree(CONFIG, [(columns, dict(RUN, layers=(2, 1)))])

    def test_layers_declared_on_flat_columns(self):
        columns = hand_columns([0.1, 0.7], [1, 2], outcome=[HIT, 1])
        assert_monitors_agree(CONFIG, [(columns, dict(RUN, layers=(2, 1)))])

    def test_empty_runs(self):
        empty = hand_columns([], [])
        events_only = hand_columns([], [], event_time=[0.0], event_node=[0],
                                   event_up=[False])
        retried_only = hand_columns([0.2], [1], outcome=[RETRIED])
        assert_monitors_agree(CONFIG, [
            (empty, RUN), (events_only, dict(RUN, chaos=True)), (retried_only, RUN),
        ])

    def test_hot_key_at_the_first_log_mismatch(self):
        # 9170 is the first k where np.log(k) and math.log(k) disagree
        # (numpy 2.4.6); a key ending its window at that count moves the
        # entropy's last bit.
        keys = [0] * 9_170 + [1, 2]
        columns = hand_columns([0.25] * len(keys), keys, outcome=[0] * len(keys))
        assert_monitors_agree(CONFIG, [(columns, RUN)])

    def test_trace_alerts_and_suspects(self):
        alert = {"type": "alert", "rule": "attribution-concentration", "trial": 0,
                 "window": 0, "t": 0.5, "value": 0.9, "threshold": 0.5}
        trace = {"alerts": [alert], "suspects": {"prefixes": [[1, 2]]}}
        columns = hand_columns([0.1, 0.2], [1, 1], outcome=[0, 0])
        assert_monitors_agree(CONFIG, [(columns, dict(RUN, trace=trace))])


@st.composite
def _runs(draw):
    """One to three hand-built runs over a shared system and window."""
    n = draw(st.integers(1, 4))
    quantum = draw(st.sampled_from([0.1, 0.25, 0.3]))
    layers = draw(st.sampled_from([None, (2,), (2, 3)]))
    runs = []
    for trial in range(draw(st.integers(1, 3))):
        size = draw(st.integers(0, 30))
        ticks = sorted(draw(st.lists(st.integers(0, 20), min_size=size, max_size=size)))
        time = [quantum * tick for tick in ticks]
        key = draw(st.lists(st.integers(0, 5), min_size=size, max_size=size))
        outcome = draw(st.lists(
            st.sampled_from([HIT, UNAVAILABLE, RETRIED, *range(n)]),
            min_size=size, max_size=size,
        ))
        retried = [i for i, o in enumerate(outcome) if o == RETRIED]
        delays = draw(st.lists(st.integers(0, 8), min_size=len(retried), max_size=len(retried)))
        retries = sorted(
            (time[i] + quantum * delay, i,
             draw(st.integers(-1, n - 1)))
            for i, delay in zip(retried, delays)
        )
        n_events = draw(st.integers(0, 5))
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
            event_time=[e[0] for e in events], event_node=[e[1] for e in events],
            event_up=[e[2] for e in events],
        )
        if layers is not None and draw(st.booleans()):
            layer = [draw(st.integers(0, len(layers) - 1)) if o == HIT else -1
                     for o in outcome]
            fields["layer"] = layer
            fields["shard"] = [draw(st.integers(0, layers[lay] - 1)) if lay >= 0 else -1
                               for lay in layer]
        if draw(st.booleans()) and time:
            fields["duration"] = time[-1] + quantum * draw(st.integers(0, 3))
        run = dict(n=n, rate=draw(st.sampled_from([2.0, 10.0])),
                   chaos=draw(st.booleans()), layers=layers)
        runs.append((hand_columns(time, key, **fields), run))
    config = MonitorConfig(
        window=draw(st.sampled_from([0.3, 0.5, 0.7, 1.0])),
        c=1, d=draw(st.integers(2, 3)), x=draw(st.sampled_from([None, 3, 8])),
        entropy_min_keys=draw(st.integers(0, 3)),
        overload_factor=draw(st.sampled_from([0.5, 4.0])),
    )
    return config, runs


@given(_runs())
@settings(max_examples=300, deadline=None)
def test_hand_columns_agree(case):
    config, runs = case
    assert_monitors_agree(config, runs)


@functools.lru_cache(maxsize=None)
def _kernel_runs(name, seed):
    """The spec's runs as the event kernel hands them to the monitor."""
    spec = dataclasses.replace(load_spec(SPECS[name]), seed=seed)
    x = getattr(build_distribution(
        spec.workload, spec.adversary, BuildContext(params=spec.system, seed=spec.seed),
    ), "x", None)
    runs = []
    observe = LoadMonitor.observe

    def capture(self, columns, **run):
        runs.append((columns, run))
        return observe(self, columns, **run)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(LoadMonitor, "observe", capture)
        monitor = LoadMonitor(MonitorConfig.from_params(spec.system, x=x))
        run_scenario(spec, workers=1, context=RunContext(monitor=monitor))
    assert len(runs) == spec.trials
    return MonitorConfig.from_params(spec.system, x=x), tuple(runs)


def _assert_kernel_runs_agree(name, seed, window):
    config, runs = _kernel_runs(name, seed)
    assert_monitors_agree(dataclasses.replace(config, window=window), runs)


@pytest.mark.parametrize("window", [0.0007, 0.1])
@pytest.mark.parametrize("name", sorted(SPECS))
def test_kernel_runs_agree(name, window):
    seed = load_spec(SPECS[name]).seed
    _assert_kernel_runs_agree(name, seed, window)


@pytest.mark.slow
@pytest.mark.parametrize("offset", [1, 2, 3])
@pytest.mark.parametrize("window", [0.0007, 0.01, 0.1, 100.0])
@pytest.mark.parametrize("name", sorted(SPECS))
def test_kernel_runs_agree_sweep(name, window, offset):
    seed = load_spec(SPECS[name]).seed
    _assert_kernel_runs_agree(name, seed + offset, window)
