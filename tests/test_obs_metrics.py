"""Contract tests for the metrics registry (repro.obs.metrics).

These pin down the documented guarantees: counter monotonicity,
histogram quantile estimates within one bucket of the exact order
statistic, merge associativity/commutativity, and the null registry's
total inertness.
"""

import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    DEFAULT_BUCKETS,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    as_registry,
    export_json,
    to_prometheus,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = Counter("c")
        assert counter.value == 0.0
        counter.inc()
        counter.inc(3)
        counter.inc(0.5)
        assert counter.value == 4.5

    def test_zero_increment_allowed(self):
        counter = Counter("c")
        counter.inc(0)
        assert counter.value == 0.0

    def test_negative_increment_rejected(self):
        counter = Counter("c")
        counter.inc(2)
        with pytest.raises(ValueError):
            counter.inc(-1)
        assert counter.value == 2  # unchanged by the failed call

    @given(st.lists(st.integers(min_value=0, max_value=10**9), max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_monotone_over_any_increment_sequence(self, amounts):
        counter = Counter("c")
        previous = counter.value
        for amount in amounts:
            counter.inc(amount)
            assert counter.value >= previous
            previous = counter.value
        assert counter.value == sum(amounts)


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("g")
        gauge.set(10)
        gauge.inc(2.5)
        gauge.dec(5)
        assert gauge.value == 7.5

    def test_can_go_negative(self):
        gauge = Gauge("g")
        gauge.dec(3)
        assert gauge.value == -3.0


class TestHistogram:
    def test_totals_and_extremes(self):
        histogram = Histogram("h")
        for value in (0.5, 2.0, 8.0):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.sum == 10.5
        assert histogram.min == 0.5
        assert histogram.max == 8.0

    def test_empty_quantile_is_nan(self):
        histogram = Histogram("h")
        assert math.isnan(histogram.quantile(0.5))

    def test_quantile_domain_checked(self):
        histogram = Histogram("h")
        histogram.observe(1.0)
        with pytest.raises(ValueError):
            histogram.quantile(1.5)
        with pytest.raises(ValueError):
            histogram.quantile(-0.1)

    def test_bounds_must_be_increasing_and_nonempty(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=())
        with pytest.raises(ValueError):
            Histogram("h", bounds=(1.0, 1.0, 2.0))

    def test_bucketing_follows_le_convention(self):
        histogram = Histogram("h", bounds=(1.0, 2.0, 4.0))
        for value in (1.0, 1.5, 2.0, 5.0):
            histogram.observe(value)
        # v <= 1 -> bucket 0; 1 < v <= 2 -> bucket 1; overflow last.
        assert histogram.counts == [1, 2, 0, 1]

    def test_observe_many_matches_loop(self):
        a, b = Histogram("h"), Histogram("h")
        values = [0.1, 0.2, 3.0, 700.0]
        a.observe_many(values)
        for value in values:
            b.observe(value)
        assert a.counts == b.counts
        assert a.sum == b.sum

    def test_percentiles_trio(self):
        histogram = Histogram("h")
        histogram.observe_many(range(1, 101))
        trio = histogram.percentiles()
        assert set(trio) == {"p50", "p95", "p99"}
        assert trio["p50"] <= trio["p95"] <= trio["p99"]

    def test_single_observation_quantiles_exact(self):
        histogram = Histogram("h")
        histogram.observe(3.7)
        for q in (0.0, 0.5, 0.99, 1.0):
            assert histogram.quantile(q) == 3.7

    def test_single_negative_observation_quantiles_exact(self):
        # The count==1 early return must hand back the value itself,
        # whatever its sign — not a bucket boundary or a falsy default.
        histogram = Histogram("h")
        histogram.observe(-2.5)
        for q in (0.0, 0.5, 1.0):
            assert histogram.quantile(q) == -2.5

    def test_extreme_quantiles_are_exact_min_max(self):
        histogram = Histogram("h")
        histogram.observe_many([0.3, 1.7, 42.0, 9000.0])
        assert histogram.quantile(0.0) == 0.3
        assert histogram.quantile(1.0) == 9000.0

    def test_empty_percentiles_all_nan(self):
        histogram = Histogram("h")
        assert all(math.isnan(v) for v in histogram.percentiles().values())

    @given(
        values=st.lists(
            st.floats(min_value=1e-3, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=200,
        ),
        q=st.sampled_from([0.5, 0.9, 0.95, 0.99, 1.0]),
    )
    @settings(max_examples=80, deadline=None)
    def test_quantile_within_one_bucket_of_exact(self, values, q):
        """The estimate shares a power-of-two bucket with the exact
        nearest-rank order statistic: at most a factor of 2 apart, and
        always inside the observed [min, max] range."""
        histogram = Histogram("h")
        histogram.observe_many(values)
        estimate = histogram.quantile(q)
        exact = float(np.quantile(values, q, method="inverted_cdf"))
        assert min(values) <= estimate <= max(values)
        assert exact / 2 - 1e-12 <= estimate <= exact * 2 + 1e-12


def _histogram_state(histogram):
    """Everything ``observe`` touches; ``repr`` tells ``-0.0`` from ``0.0``
    and lets NaN equal NaN."""
    return repr(
        (histogram.counts, histogram.sum, histogram.count, histogram.min, histogram.max)
    )


def _random_batch(rng):
    size = int(rng.integers(0, 400))
    kind = rng.integers(0, 4)
    if kind == 0:  # latency-like
        batch = rng.lognormal(-6.0, 3.0, size)
    elif kind == 1:  # signed, wide
        batch = rng.normal(0.0, 10.0 ** rng.integers(-3, 6), size)
    elif kind == 2:  # bucket bounds, their neighbours and signed zeros
        picks = list(DEFAULT_BUCKETS) + [0.0, -0.0]
        batch = rng.choice(picks, size) * rng.choice([1.0, 1.0 + 2**-52, 1.0 - 2**-53], size)
    else:  # integers
        batch = rng.integers(-5, 5000, size).astype(float)
    if size and rng.random() < 0.2:
        batch[rng.integers(0, size, 2)] = rng.choice([np.inf, -np.inf], 2)
    return batch


class TestObserveManyDifferential:
    """The vectorized ``observe_many`` against ``observe`` per value."""

    @pytest.mark.parametrize("seed", range(210))
    def test_random_batches(self, seed):
        rng = np.random.default_rng(seed)
        bounds = None if seed % 3 else (0.0, 1.0, 2.5, 10.0, np.inf)
        batched, looped = Histogram("h", bounds=bounds), Histogram("h", bounds=bounds)
        for _ in range(int(rng.integers(1, 4))):
            batch = _random_batch(rng)
            batched.observe_many(batch if seed % 2 else batch.tolist())
            for value in batch.tolist():
                looped.observe(value)
            assert _histogram_state(batched) == _histogram_state(looped)

    @pytest.mark.parametrize(
        "values",
        [
            [],
            [3.0],
            [-0.0, 0.0],
            [0.0, -0.0],
            list(DEFAULT_BUCKETS),
            [math.inf, -math.inf],
            [math.inf, 1.0, math.inf, -math.inf],
            [1e308, 1e308, -1e308],
            [5, 7, 2],
        ],
        ids=[
            "empty", "single", "neg-zero-first", "pos-zero-first", "on-bounds",
            "infs", "inf-sum-nan", "overflow", "ints",
        ],
    )
    def test_edge_batches(self, values):
        batched, looped = Histogram("h"), Histogram("h")
        batched.observe(1.0)
        looped.observe(1.0)
        batched.observe_many(values)
        for value in values:
            looped.observe(value)
        assert _histogram_state(batched) == _histogram_state(looped)

    @pytest.mark.parametrize("first", [True, False], ids=["nan-first", "nan-later"])
    def test_nan_batches_take_the_loop(self, first):
        values = [math.nan, 0.5, 300.0] if first else [0.5, math.nan, 300.0]
        for warm in (False, True):
            batched, looped = Histogram("h"), Histogram("h")
            if warm:
                batched.observe(2.0)
                looped.observe(2.0)
            batched.observe_many(np.array(values))
            for value in values:
                looped.observe(value)
            assert _histogram_state(batched) == _histogram_state(looped)
        # bisect_left puts NaN in bucket 0, where searchsorted would not.
        assert batched.counts[0] == 1

    def test_generator_input(self):
        batched, looped = Histogram("h"), Histogram("h")
        batched.observe_many(v / 7 for v in range(50))
        for v in range(50):
            looped.observe(v / 7)
        assert _histogram_state(batched) == _histogram_state(looped)


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("b") is registry.gauge("b")
        assert registry.histogram("c") is registry.histogram("c")

    def test_labels_distinguish_series(self):
        registry = MetricsRegistry()
        registry.counter("hits", policy="lru").inc(1)
        registry.counter("hits", policy="fifo").inc(2)
        assert registry.counter("hits", policy="lru").value == 1
        assert registry.counter("hits", policy="fifo").value == 2
        assert len(registry) == 2

    def test_label_order_is_irrelevant(self):
        registry = MetricsRegistry()
        a = registry.counter("c", x=1, y=2)
        b = registry.counter("c", y=2, x=1)
        assert a is b

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("n")
        with pytest.raises(ValueError):
            registry.gauge("n")
        with pytest.raises(ValueError):
            registry.histogram("n")

    def test_introspection_sorted(self):
        registry = MetricsRegistry()
        registry.counter("z")
        registry.counter("a")
        registry.counter("a", node="1")
        assert [(c.name, c.labels) for c in registry.counters()] == [
            ("a", ()),
            ("a", (("node", "1"),)),
            ("z", ()),
        ]

    def test_snapshot_is_json_serializable(self):
        registry = MetricsRegistry()
        registry.counter("c", k="v").inc(2)
        registry.gauge("g").set(1.5)
        registry.histogram("h").observe(3.0)
        text = json.dumps(registry.snapshot(), sort_keys=True)
        parsed = json.loads(text)
        assert parsed["counters"][0] == {"name": "c", "labels": {"k": "v"}, "value": 2}

    def test_default_histogram_uses_shared_bounds(self):
        registry = MetricsRegistry()
        assert registry.histogram("h").bounds == DEFAULT_BUCKETS


def _fill(registry, spec):
    """Apply a plain-data spec: counter incs, gauge sets, observations."""
    for name, amount in spec.get("counters", []):
        registry.counter(name).inc(amount)
    for name, value in spec.get("gauges", []):
        registry.gauge(name).set(value)
    for name, value in spec.get("histograms", []):
        registry.histogram(name).observe(value)
    return registry


# Integer-valued increments/observations keep every merge exact, so the
# associativity and commutativity assertions can use ==, not approx.
_spec_strategy = st.fixed_dictionaries(
    {
        "counters": st.lists(
            st.tuples(st.sampled_from(["c1", "c2"]), st.integers(0, 1000)),
            max_size=6,
        ),
        "gauges": st.lists(
            st.tuples(st.sampled_from(["g1", "g2"]), st.integers(-50, 50)),
            max_size=6,
        ),
        "histograms": st.lists(
            st.tuples(st.sampled_from(["h1", "h2"]), st.integers(1, 10**6)),
            max_size=6,
        ),
    }
)


class TestMerge:
    def test_counter_merge_sums(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(3)
        b.counter("c").inc(4)
        a.merge(b)
        assert a.counter("c").value == 7

    def test_gauge_merge_keeps_max(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("g").set(5)
        b.gauge("g").set(3)
        a.merge(b)
        assert a.gauge("g").value == 5
        b.merge(a)
        assert b.gauge("g").value == 5

    def test_histogram_merge_is_exact(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("h").observe_many([1.0, 2.0])
        b.histogram("h").observe_many([4.0, 1000.0])
        a.merge(b)
        merged = a.histogram("h")
        reference = Histogram("h")
        reference.observe_many([1.0, 2.0, 4.0, 1000.0])
        assert merged.counts == reference.counts
        assert merged.sum == reference.sum
        assert merged.count == 4
        assert merged.min == 1.0
        assert merged.max == 1000.0

    def test_merge_into_empty_is_identity(self):
        source = _fill(
            MetricsRegistry(),
            {"counters": [("c1", 5)], "gauges": [("g1", -2)], "histograms": [("h1", 9)]},
        )
        target = MetricsRegistry()
        target.merge(source)
        assert target.snapshot() == source.snapshot()

    def test_bounds_mismatch_rejected(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("h", bounds=(1.0, 2.0)).observe(1.0)
        b.histogram("h").observe(1.0)
        with pytest.raises(ValueError):
            a.merge(b)

    def test_merge_accepts_registry_or_snapshot(self):
        source = MetricsRegistry()
        source.counter("c").inc(2)
        via_registry, via_snapshot = MetricsRegistry(), MetricsRegistry()
        via_registry.merge(source)
        via_snapshot.merge(source.snapshot())
        assert via_registry.snapshot() == via_snapshot.snapshot()

    @given(a=_spec_strategy, b=_spec_strategy)
    @settings(max_examples=40, deadline=None)
    def test_merge_commutative(self, a, b):
        left = _fill(MetricsRegistry(), a)
        left.merge(_fill(MetricsRegistry(), b))
        right = _fill(MetricsRegistry(), b)
        right.merge(_fill(MetricsRegistry(), a))
        assert left.snapshot() == right.snapshot()

    @given(a=_spec_strategy, b=_spec_strategy, c=_spec_strategy)
    @settings(max_examples=40, deadline=None)
    def test_merge_associative(self, a, b, c):
        # (A + B) + C
        ab = _fill(MetricsRegistry(), a)
        ab.merge(_fill(MetricsRegistry(), b))
        ab.merge(_fill(MetricsRegistry(), c))
        # A + (B + C)
        bc = _fill(MetricsRegistry(), b)
        bc.merge(_fill(MetricsRegistry(), c))
        a_bc = _fill(MetricsRegistry(), a)
        a_bc.merge(bc)
        assert ab.snapshot() == a_bc.snapshot()


class TestNullRegistry:
    def test_disabled_flag(self):
        assert NULL_REGISTRY.enabled is False
        assert MetricsRegistry().enabled is True

    def test_records_nothing(self):
        registry = NullRegistry()
        registry.counter("c", policy="lru").inc(10)
        registry.gauge("g").set(5)
        registry.histogram("h").observe(1.0)
        assert len(registry) == 0
        assert registry.snapshot() == {"counters": [], "gauges": [], "histograms": []}

    def test_hands_out_shared_singleton(self):
        registry = NullRegistry()
        assert registry.counter("a") is registry.histogram("b")

    def test_null_metric_surface_is_inert(self):
        metric = NULL_REGISTRY.counter("c")
        metric.inc(5)
        metric.dec(5)
        metric.set(9)
        metric.observe(1.0)
        metric.observe_many([1.0, 2.0])
        assert metric.value == 0.0
        assert math.isnan(metric.quantile(0.5))
        assert all(math.isnan(v) for v in metric.percentiles().values())

    def test_merge_into_null_is_noop(self):
        source = MetricsRegistry()
        source.counter("c").inc(3)
        registry = NullRegistry()
        registry.merge(source)
        assert registry.snapshot() == {"counters": [], "gauges": [], "histograms": []}

    def test_as_registry_normalises_none(self):
        assert as_registry(None) is NULL_REGISTRY
        real = MetricsRegistry()
        assert as_registry(real) is real


class TestPickling:
    def test_registry_round_trips(self):
        registry = _fill(
            MetricsRegistry(),
            {"counters": [("c1", 7)], "gauges": [("g1", 3)], "histograms": [("h1", 42)]},
        )
        clone = pickle.loads(pickle.dumps(registry))
        assert clone.snapshot() == registry.snapshot()
        clone.counter("c1").inc(1)  # still usable after the round trip
        assert clone.counter("c1").value == 8

    def test_null_registry_round_trips(self):
        clone = pickle.loads(pickle.dumps(NULL_REGISTRY))
        assert clone.enabled is False
        clone.counter("c").inc(5)
        assert clone.snapshot() == {"counters": [], "gauges": [], "histograms": []}


class TestExportFormats:
    def _registry(self):
        registry = MetricsRegistry()
        registry.counter("requests_total", node="0").inc(10)
        registry.gauge("cache_size", policy="lru").set(4)
        registry.histogram("latency_seconds").observe_many([0.001, 0.002, 0.5])
        return registry

    def test_export_json_shape(self):
        document = export_json(self._registry(), extra={"figure": "fig3a"})
        assert document["version"] == 1
        assert document["figure"] == "fig3a"
        names = {c["name"] for c in document["metrics"]["counters"]}
        assert names == {"requests_total"}
        histogram = document["metrics"]["histograms"][0]
        assert {"p50", "p95", "p99", "bounds", "counts"} <= set(histogram)

    def test_prometheus_text_format(self):
        text = to_prometheus(self._registry())
        assert "# TYPE repro_requests_total counter" in text
        assert 'repro_requests_total{node="0"} 10' in text
        assert "# TYPE repro_cache_size gauge" in text
        assert "# TYPE repro_latency_seconds histogram" in text
        assert 'repro_latency_seconds_bucket{le="+Inf"} 3' in text
        assert "repro_latency_seconds_count 3" in text

    def test_prometheus_buckets_are_cumulative(self):
        registry = MetricsRegistry()
        registry.histogram("h", bounds=(1.0, 2.0)).observe_many([0.5, 1.5, 9.0])
        text = to_prometheus(registry)
        assert 'repro_h_bucket{le="1"} 1' in text
        assert 'repro_h_bucket{le="2"} 2' in text
        assert 'repro_h_bucket{le="+Inf"} 3' in text

    def test_deterministic_output(self):
        assert to_prometheus(self._registry()) == to_prometheus(self._registry())
        assert export_json(self._registry()) == export_json(self._registry())
