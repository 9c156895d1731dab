"""Causal request tracing + attribution: the determinism lockdown.

Four contracts, each pinned here:

1. **RNG-free sampling** — attaching a flight recorder never touches an
   engine RNG stream: traced and untraced runs produce identical
   results, and the hash sampler's admit rate converges to the
   configured fraction (hypothesis) as a pure function of
   ``(seed, trial, key, index)``.
2. **Engine equality** — the per-event reference scheduler
   (``tests/event_oracle.py``) and the batched event kernel emit
   *identical* trace records for the same seeded run (the queueing
   differential contract, extended to the trace layer).
3. **Worker-count invariance** — a traced scenario's exported JSONL and
   suspects block are byte-identical serial vs ``workers=4``.
4. **Offline == online** — rebuilding a recorder from the exported
   trace (``repro forensics``) reproduces
   the live suspects, alerts and per-trial summaries exactly.

Plus the ISSUE's acceptance scenario: under a ``shard-flood`` the top
attributed prefix is a ground-truth attack bucket, the top client is
the attacker, and ``attribution-concentration`` fires.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from event_oracle import run_oracle
from repro.core.notation import SystemParameters
from repro.exceptions import ScenarioValidationError
from repro.obs import RunContext
from repro.obs.forensics import (
    path_breakdown,
    render_forensics_html,
    render_forensics_text,
    timeline_bins,
)
from repro.obs.trace import (
    FlightRecorder,
    HashSampler,
    StrideSampler,
    TraceConfig,
)
from repro.scenario.build import BuildContext, build_component
from repro.scenario.campaign import run_scenario
from repro.scenario.spec import ComponentSpec, ScenarioSpec
from repro.sim.eventsim import EventDrivenSimulator
from repro.workload.adversarial import AdversarialDistribution
from repro.workload.zipf import ZipfDistribution

PARAMS = SystemParameters(n=16, m=400, c=8, d=3, rate=2000.0)


def _result_fingerprint(result):
    return (
        result.duration,
        result.frontend_hits,
        result.backend_queries,
        result.normalized_max,
        result.drop_rate,
        result.latency_p99,
        tuple(result.served.tolist()),
        tuple(result.dropped.tolist()),
    )


class TestHashSampler:
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        sample=st.sampled_from([0.05, 0.2, 0.5, 0.9]),
    )
    @settings(max_examples=15, deadline=None)
    def test_rate_converges(self, seed, sample):
        """Admitted fraction ~ sample over a long key stream."""
        sampler = HashSampler(seed, sample)
        keys = np.arange(5000, dtype=np.int64) % 97
        frac = float(sampler.mask(keys).mean())
        assert abs(frac - sample) < 0.06

    @given(seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=10, deadline=None)
    def test_pure_function_of_identifiers(self, seed):
        """Same (seed, trial) -> same mask; trials decorrelate."""
        keys = np.arange(800, dtype=np.int64)
        a = HashSampler(seed, 0.3, trial=0).mask(keys)
        b = HashSampler(seed, 0.3, trial=0).mask(keys)
        c = HashSampler(seed, 0.3, trial=1).mask(keys)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        sample=st.sampled_from([0.0, 1e-6, 0.05, 0.5, 0.999999]),
        keys=st.lists(st.integers(min_value=0, max_value=2**40), max_size=60),
        start=st.sampled_from([0, 1, 12345]),
    )
    @settings(max_examples=60, deadline=None)
    def test_mask_matches_admit(self, seed, sample, keys, start):
        """The vectorised mask makes exactly the per-request decisions."""
        sampler = HashSampler(seed, sample, trial=3)
        mask = sampler.mask(np.array(keys, dtype=np.int64), start=start)
        assert mask.dtype == bool
        assert mask.tolist() == [
            sampler.admit(k, i) for i, k in enumerate(keys, start)
        ]

    def test_edge_rates(self):
        keys = np.arange(100, dtype=np.int64)
        assert HashSampler(1, 1.0).mask(keys).all()
        assert not HashSampler(1, 0.0).mask(keys).any()

    def test_stride_sampler_rate(self):
        keys = np.arange(1000, dtype=np.int64)
        mask = StrideSampler(3, 0.1).mask(keys)
        assert int(mask.sum()) == 100

    def test_consumes_no_engine_rng(self):
        """Traced and untraced runs are numerically identical."""
        dist = ZipfDistribution(PARAMS.m, 1.1)
        base = EventDrivenSimulator(PARAMS, dist, seed=11).run(3000)
        recorder = FlightRecorder(TraceConfig(sample=0.3), seed=11)
        traced = EventDrivenSimulator(
            PARAMS, dist, seed=11, context=RunContext(trace=recorder)
        ).run(3000)
        assert _result_fingerprint(base) == _result_fingerprint(traced)
        assert recorder.sampled > 0


class TestEngineEquality:
    """The event kernel ("fast") against the per-event oracle ("legacy")."""

    @staticmethod
    def _run(runner, seed, trials, n_queries, dist, **kwargs):
        recorder = FlightRecorder(TraceConfig(sample=kwargs.pop("sample")), seed=seed)
        sim = EventDrivenSimulator(
            PARAMS, dist, seed=seed, context=RunContext(trace=recorder), **kwargs
        )
        for trial in trials:
            runner(sim, n_queries, trial)
        return recorder

    @pytest.mark.parametrize("service", ["deterministic", "exponential"])
    @pytest.mark.parametrize("sample", [1.0, 0.2])
    def test_legacy_and_fast_records_identical(self, service, sample):
        dist = AdversarialDistribution(PARAMS.m, PARAMS.c + 1)
        recorders = {
            engine: self._run(
                runner, 5, (0,), 4000, dist,
                routing="pin", service=service, sample=sample,
            )
            for engine, runner in (
                ("legacy", run_oracle),
                ("fast", lambda sim, q, t: sim.run(q, trial=t)),
            )
        }
        assert recorders["legacy"].records == recorders["fast"].records
        assert recorders["legacy"].suspects() == recorders["fast"].suspects()
        assert recorders["legacy"].alerts == recorders["fast"].alerts

    def test_multi_trial_summaries_match(self):
        dist = ZipfDistribution(PARAMS.m, 1.2)
        legacy = self._run(run_oracle, 9, range(3), 1500, dist, sample=0.5)
        fast = self._run(
            lambda sim, q, t: sim.run(q, trial=t), 9, range(3), 1500, dist,
            sample=0.5,
        )
        assert legacy.summaries == fast.summaries


def _traced_spec(workers: int = 1, **overrides) -> ScenarioSpec:
    data = {
        "scenario": 1,
        "name": "trace/contract",
        "system": {"n": 16, "m": 400, "c": 8, "d": 3, "rate": 2000.0},
        "workload": {"kind": "zipf", "s": 1.2},
        "engine": "event-driven",
        "trace": {"kind": "hash", "sample": 0.4},
        "trials": 4,
        "queries": 1200,
        "seed": 21,
        "workers": workers,
    }
    data.update(overrides)
    data = {k: v for k, v in data.items() if v is not None}
    return ScenarioSpec.from_dict(data)


class TestWorkerInvariance:
    def test_trace_jsonl_and_suspects_identical(self, tmp_path):
        serial = run_scenario(_traced_spec(workers=1))
        parallel = run_scenario(_traced_spec(workers=4))
        assert serial.stats == parallel.stats
        assert serial.trace.records == parallel.trace.records
        assert serial.trace.suspects() == parallel.trace.suspects()
        assert serial.trace.summaries == parallel.trace.summaries
        a, b = tmp_path / "serial.jsonl", tmp_path / "parallel.jsonl"
        serial.trace.write(a)
        parallel.trace.write(b)
        assert a.read_bytes() == b.read_bytes()

    def test_trace_section_leaves_campaign_stats_unchanged(self):
        traced = run_scenario(_traced_spec())
        untraced_spec = _traced_spec()
        untraced_spec = ScenarioSpec.from_dict(
            {
                k: v
                for k, v in untraced_spec.to_dict().items()
                if k != "trace"
            }
        )
        untraced = run_scenario(untraced_spec)
        assert untraced.trace is None
        assert "trace" not in untraced.stats
        stats = dict(traced.stats)
        stats.pop("trace")
        assert stats == untraced.stats


class TestSpecSurface:
    def test_round_trip_preserves_trace_section(self):
        spec = _traced_spec()
        again = ScenarioSpec.from_dict(spec.to_dict())
        assert again.trace == spec.trace
        assert again == spec

    def test_monte_carlo_rejects_trace(self):
        spec = _traced_spec(
            engine="monte-carlo",
            workload=None,
            adversary={"kind": "subset-flood", "x": 9},
        )
        with pytest.raises(ScenarioValidationError, match="event-driven"):
            run_scenario(spec)

    def test_unknown_sampler_kind_rejected(self):
        with pytest.raises(ScenarioValidationError, match="hash"):
            run_scenario(_traced_spec(trace={"kind": "no-such-sampler"}))


class TestRingBound:
    def test_capacity_evicts_oldest(self):
        recorder = FlightRecorder(TraceConfig(sample=1.0, capacity=100), seed=3)
        EventDrivenSimulator(
            PARAMS, ZipfDistribution(PARAMS.m, 1.1), seed=3,
            context=RunContext(trace=recorder),
        ).run(1000)
        assert len(recorder.records) == 100
        assert recorder.evicted == 900
        assert recorder.sampled == 1000
        # The ring keeps the most recent records.
        assert recorder.records[-1]["i"] == 999


class TestOfflineRecompute:
    def test_from_export_matches_live(self, tmp_path):
        outcome = run_scenario(_traced_spec())
        live = outcome.trace
        path = tmp_path / "trace.jsonl"
        live.write(path)
        durations = {
            s["trial"]: d
            for s, d in zip(
                live.summaries,
                [r.duration for r in outcome.result.results],
            )
        }
        offline = FlightRecorder.from_export(path, durations=durations)
        assert offline.suspects() == live.suspects()
        assert offline.alerts == live.alerts
        assert offline.summaries == live.summaries
        assert offline.seen == live.seen
        assert offline.sampled == live.sampled

    def test_recompute_single_run(self, tmp_path):
        recorder = FlightRecorder(TraceConfig(sample=1.0), seed=2)
        result = EventDrivenSimulator(
            PARAMS,
            AdversarialDistribution(PARAMS.m, PARAMS.c + 1),
            seed=2,
            context=RunContext(trace=recorder),
        ).run(2000)
        path = tmp_path / "trace.jsonl"
        recorder.write(path)
        offline = FlightRecorder.from_export(path, durations={0: result.duration})
        assert offline.summaries[0]["suspects"] == recorder.summaries[0]["suspects"]
        assert offline.alerts == recorder.summaries[0]["alerts"]


class TestShardFloodAttribution:
    """The ISSUE's acceptance scenario."""

    def test_top_suspect_is_ground_truth(self):
        spec = ScenarioSpec.from_dict({
            "scenario": 1,
            "name": "trace/shard-flood",
            "system": {"n": 16, "m": 400, "c": 8, "d": 3, "rate": 2000.0},
            "adversary": {"kind": "shard-flood"},
            "engine": "event-driven",
            "trace": {"kind": "hash", "sample": 1.0},
            "trials": 2,
            "queries": 2000,
            "seed": 7,
        })
        outcome = run_scenario(spec)
        recorder = outcome.trace
        adversary = build_component(
            "adversary",
            ComponentSpec.from_data({"kind": "shard-flood"}, "adversary"),
            BuildContext(params=spec.system, seed=spec.seed),
        )
        buckets = recorder.config.prefix_buckets
        truth = {
            int(key) * buckets // spec.system.m for key in adversary.keys
        }
        suspects = recorder.suspects()
        assert suspects["prefixes"][0]["prefix"] in truth
        assert suspects["clients"][0]["client"] == 1
        fired = {alert["rule"] for alert in recorder.alerts}
        assert "attribution-concentration" in fired
        # Each firing names a ground-truth bucket as the suspect.
        assert all(alert["prefix"] in truth for alert in recorder.alerts)
        assert outcome.stats["trace"]["alerts"] == len(recorder.alerts)

    def test_ground_truth_client_map_flows_from_distribution(self):
        adversary = build_component(
            "adversary",
            ComponentSpec.from_data({"kind": "shard-flood"}, "adversary"),
            BuildContext(params=PARAMS, seed=1),
        )
        ids = adversary.distribution().client_map()
        assert ids is not None
        assert set(np.unique(ids)) == {0, 1}
        assert (ids[adversary.keys] == 1).all()


class TestForensicsRenderers:
    @pytest.fixture()
    def recorder(self):
        recorder = FlightRecorder(TraceConfig(sample=1.0), seed=4)
        EventDrivenSimulator(
            PARAMS,
            AdversarialDistribution(PARAMS.m, PARAMS.c + 1, client_id=2),
            seed=4,
            context=RunContext(trace=recorder),
        ).run(2000)
        return recorder

    def test_path_breakdown_partitions_records(self, recorder):
        rows = path_breakdown(recorder.records)
        assert sum(row["requests"] for row in rows) == len(recorder.records)
        assert abs(sum(row["share"] for row in rows) - 1.0) < 1e-9

    def test_timeline_bins_align_with_alerts(self, recorder):
        bins = timeline_bins(
            recorder.records, recorder.alerts, window=recorder.config.window
        )
        assert sum(slot["requests"] for slot in bins) == len(recorder.records)
        flagged = {
            (alert["trial"], alert["window"]) for alert in recorder.alerts
        }
        marked = {
            (slot["trial"], slot["index"]) for slot in bins if slot["alert"]
        }
        assert marked == flagged

    def test_text_and_html_render(self, recorder):
        text = render_forensics_text(recorder)
        assert "suspects over" in text
        assert "causal path breakdown" in text
        page = render_forensics_html(recorder, title="t")
        assert page.startswith("<!DOCTYPE html>")
        assert "<svg" in page
        assert "Suspect prefixes" in page

    def test_offline_render_matches_live(self, recorder, tmp_path):
        path = tmp_path / "trace.jsonl"
        recorder.write(path)
        offline = FlightRecorder.from_export(path)
        # Offline duration = last record time; suspects are duration-
        # independent, only a trailing window's alert could differ.
        assert offline.suspects() == recorder.suspects()


class TestJsonlExport:
    def test_manifest_and_records_round_trip(self, tmp_path):
        recorder = FlightRecorder(TraceConfig(sample=0.5), seed=6)
        EventDrivenSimulator(
            PARAMS, ZipfDistribution(PARAMS.m, 1.1), seed=6,
            context=RunContext(trace=recorder),
        ).run(1500)
        path = tmp_path / "trace.jsonl"
        recorder.write(path)
        lines = path.read_text().splitlines()
        head = json.loads(lines[0])
        assert head["type"] == "trace-manifest"
        assert head["config"] == recorder.config.to_dict()
        assert head["sampled"] == recorder.sampled == len(lines) - 1
        data = FlightRecorder.read(path)
        assert data["records"] == recorder.records
