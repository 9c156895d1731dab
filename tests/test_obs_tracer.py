"""Contract tests for the phase span tracer (repro.obs.spans)."""

import pytest

from repro.obs import (
    NULL_TRACER,
    MetricsRegistry,
    NullTracer,
    Tracer,
    as_tracer,
    export_json,
    to_prometheus,
)


class FakeClock:
    """Deterministic clock: each read advances by ``step`` seconds."""

    def __init__(self, step=1.0):
        self.now = 0.0
        self.step = step

    def __call__(self):
        value = self.now
        self.now += self.step
        return value


def make_tracer(**kwargs):
    return Tracer(clock=FakeClock(), **kwargs)


class TestSpans:
    def test_nested_spans_build_slash_paths(self):
        tracer = make_tracer()
        with tracer.span("campaign"):
            with tracer.span("trial"):
                assert tracer.current_path == "campaign/trial"
                assert tracer.depth == 2
            assert tracer.current_path == "campaign"
        assert tracer.current_path == ""
        assert tracer.depth == 0
        assert [span.path for span in tracer.spans()] == ["campaign/trial", "campaign"]

    def test_span_records_duration_from_clock(self):
        tracer = make_tracer()
        with tracer.span("work"):
            pass
        (span,) = tracer.spans()
        assert span.name == "work"
        assert span.duration == 1.0  # one FakeClock step between open/close

    def test_slash_in_name_rejected(self):
        tracer = make_tracer()
        with pytest.raises(ValueError):
            with tracer.span("a/b"):
                pass
        assert tracer.depth == 0

    def test_exception_propagates_but_span_closes(self):
        tracer = make_tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise RuntimeError("boom")
        # Both spans recorded despite the exception, stack fully unwound.
        assert tracer.depth == 0
        assert [span.path for span in tracer.spans()] == ["outer/inner", "outer"]
        assert all(span.duration is not None for span in tracer.spans())

    def test_sibling_spans_share_a_path(self):
        tracer = make_tracer()
        for _ in range(3):
            with tracer.span("step"):
                pass
        assert tracer.aggregates()["step"]["count"] == 3

    def test_span_as_dict(self):
        tracer = make_tracer()
        with tracer.span("phase"):
            pass
        record = tracer.spans()[0].as_dict()
        assert record == {"name": "phase", "path": "phase", "start": 0.0, "duration": 1.0}


class TestAggregates:
    def test_stats_fields(self):
        tracer = make_tracer()
        for _ in range(4):
            with tracer.span("phase"):
                pass
        stats = tracer.aggregates()["phase"]
        assert stats["count"] == 4
        assert stats["total_seconds"] == 4.0
        assert stats["mean_seconds"] == 1.0
        for key in ("p50_seconds", "p95_seconds", "p99_seconds"):
            assert stats[key] == 1.0

    def test_aggregates_sorted_by_path(self):
        tracer = make_tracer()
        with tracer.span("zeta"):
            pass
        with tracer.span("alpha"):
            pass
        assert list(tracer.aggregates()) == ["alpha", "zeta"]

    def test_raw_span_cap_does_not_stop_aggregation(self):
        tracer = make_tracer(max_spans=2)
        for _ in range(5):
            with tracer.span("phase"):
                pass
        assert len(tracer.spans()) == 2
        assert tracer.dropped_spans == 3
        assert tracer.aggregates()["phase"]["count"] == 5

    def test_negative_cap_rejected(self):
        with pytest.raises(ValueError):
            Tracer(max_spans=-1)

    def test_to_dict_shape(self):
        tracer = make_tracer()
        with tracer.span("phase"):
            pass
        document = tracer.to_dict()
        assert set(document) == {"aggregates", "spans", "dropped_spans"}
        assert document["dropped_spans"] == 0
        assert document["spans"][0]["path"] == "phase"


class TestNullTracer:
    def test_disabled_flag(self):
        assert NULL_TRACER.enabled is False
        assert Tracer().enabled is True

    def test_span_is_inert(self):
        tracer = NullTracer()
        with tracer.span("anything") as span:
            assert span is None
        assert tracer.spans() == []
        assert tracer.aggregates() == {}
        assert tracer.to_dict() == {"aggregates": {}, "spans": [], "dropped_spans": 0}

    def test_null_span_accepts_slashes(self):
        # The null tracer skips validation entirely — it must cost nothing.
        with NULL_TRACER.span("a/b"):
            pass

    def test_as_tracer_normalises_none(self):
        assert as_tracer(None) is NULL_TRACER
        real = Tracer()
        assert as_tracer(real) is real


class TestTracerExport:
    def test_json_export_carries_trace(self):
        tracer = make_tracer()
        with tracer.span("phase"):
            pass
        document = export_json(tracer=tracer)
        assert document["trace"]["aggregates"]["phase"]["count"] == 1

    def test_prometheus_summary_series(self):
        tracer = make_tracer()
        with tracer.span("campaign"):
            with tracer.span("trial"):
                pass
        text = to_prometheus(MetricsRegistry(), tracer=tracer)
        assert "# TYPE repro_span_duration_seconds summary" in text
        assert (
            'repro_span_duration_seconds{quantile="0.5",span="campaign/trial"}' in text
        )
        assert 'repro_span_duration_seconds_count{span="campaign"} 1' in text

    def test_empty_tracer_renders_nothing(self):
        assert to_prometheus(tracer=Tracer()) == ""
