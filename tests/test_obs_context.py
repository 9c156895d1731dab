"""RunContext contract: null defaults, per-trial contexts, trial-order merge."""

import pickle
from functools import partial

import pytest

from repro.core.notation import SystemParameters
from repro.exceptions import ConfigurationError
from repro.obs import (
    NULL_CONTEXT,
    NULL_MONITOR,
    NULL_RECORDER,
    NULL_REGISTRY,
    NULL_TRACER,
    FlightRecorder,
    LoadMonitor,
    MetricsRegistry,
    MonitorConfig,
    RunContext,
    TraceConfig,
)
from repro.sim import parallel
from repro.sim.batch import _event_campaign_trial
from repro.workload.adversarial import AdversarialDistribution

PARAMS = SystemParameters(n=10, m=200, c=5, d=3, rate=2000.0)
#: One event-campaign trial task, called the one way map_trials calls it.
_TASK = partial(
    _event_campaign_trial, params=PARAMS,
    distribution=AdversarialDistribution(PARAMS.m, 6), n_queries=500, seed=3,
    cache_factory=None, simulator_kwargs={},
)


def _live(**overrides):
    registry = MetricsRegistry()
    fields = dict(
        metrics=registry,
        monitor=LoadMonitor(MonitorConfig(window=0.05), metrics=registry),
        trace=FlightRecorder(TraceConfig(sample=0.5), seed=3),
    )
    fields.update(overrides)
    return RunContext(**fields)


class TestDefaults:
    def test_null_context_holds_the_null_singletons(self):
        assert NULL_CONTEXT.metrics is NULL_REGISTRY
        assert NULL_CONTEXT.spans is NULL_TRACER
        assert NULL_CONTEXT.monitor is NULL_MONITOR
        assert NULL_CONTEXT.trace is NULL_RECORDER
        assert NULL_CONTEXT.workers == 1
        assert not NULL_CONTEXT.collecting

    def test_none_means_off(self):
        context = RunContext(metrics=None, spans=None, monitor=None, trace=None)
        assert context == NULL_CONTEXT

    def test_negative_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            RunContext(workers=-1)

    def test_null_merge_is_a_noop(self):
        trial = NULL_CONTEXT.for_trial(seed=0)
        assert not trial.collecting
        NULL_CONTEXT.merge_trial(trial)
        assert len(NULL_REGISTRY) == 0
        assert NULL_MONITOR.events.records == []
        assert NULL_RECORDER.summaries == []


class TestPerTrial:
    def test_for_trial_builds_fresh_instruments_from_configs(self):
        campaign = _live()
        trial = campaign.for_trial(seed=3)
        assert trial.metrics is not campaign.metrics
        assert trial.monitor is not campaign.monitor
        assert trial.monitor.config == campaign.monitor.config
        assert trial.trace.config == campaign.trace.config
        assert not trial.spans.enabled
        # The trial's monitor publishes into the trial's registry.
        assert trial.monitor._metrics is trial.metrics

    def test_for_trial_keeps_disabled_instruments_off(self):
        trial = RunContext(metrics=MetricsRegistry()).for_trial(seed=0)
        assert trial.metrics.enabled
        assert not trial.monitor.enabled and not trial.trace.enabled

    def test_trial_context_pickles(self):
        campaign = _live(
            monitor=LoadMonitor(MonitorConfig(), on_alert=lambda alert: None)
        )
        clone = pickle.loads(pickle.dumps(campaign.for_trial(seed=1)))
        assert clone.collecting

    def test_trial_contexts_merge_in_trial_order(self):
        serial = _live()
        for trial in range(2):
            context = serial.for_trial(seed=3)
            _event_campaign_trial(
                None, trial, PARAMS, AdversarialDistribution(PARAMS.m, 6),
                500, 3, None, {}, context=context,
            )
            serial.merge_trial(context)
        assert serial.metrics.counters()
        assert [s["trial"] for s in serial.monitor.summaries] == [0, 1]
        assert [s["trial"] for s in serial.trace.summaries] == [0, 1]


class TestExecutorSlot:
    def test_chunk_results_carry_the_trial_context(self):
        template = _live().for_trial(seed=3)
        results = parallel._run_chunk(
            _TASK, 3, "event-campaign", [0], template
        )
        (outcome, trial_context), = results
        assert outcome.backend_queries > 0
        assert isinstance(trial_context, RunContext)
        assert trial_context.metrics is not template.metrics
        assert [s["trial"] for s in trial_context.monitor.summaries] == [0]
        assert [s["trial"] for s in trial_context.trace.summaries] == [0]

    def test_null_context_returns_bare_outcomes(self):
        results = parallel._run_chunk(_TASK, 3, "event-campaign", [0, 1])
        assert [type(r).__name__ for r in results] == ["EventSimResult"] * 2
