"""Tests for repro.rng and repro.types."""

import numpy as np
import pytest

from repro import rng as rng_module
from repro.exceptions import ConfigurationError
from repro.rng import DEFAULT_SEED, RngFactory, as_generator
from repro.types import LoadReport, LoadVector


class TestRngFactory:
    def test_same_triple_same_stream(self):
        f = RngFactory(1)
        a = f.generator("x", trial=0).integers(0, 1 << 30, size=5)
        b = RngFactory(1).generator("x", trial=0).integers(0, 1 << 30, size=5)
        assert (a == b).all()

    def test_different_labels_differ(self):
        f = RngFactory(1)
        a = f.generator("alpha").integers(0, 1 << 30, size=8)
        b = f.generator("beta").integers(0, 1 << 30, size=8)
        assert not (a == b).all()

    def test_different_trials_differ(self):
        f = RngFactory(1)
        a = f.generator("x", trial=0).integers(0, 1 << 30, size=8)
        b = f.generator("x", trial=1).integers(0, 1 << 30, size=8)
        assert not (a == b).all()

    def test_different_seeds_differ(self):
        a = RngFactory(1).generator("x").integers(0, 1 << 30, size=8)
        b = RngFactory(2).generator("x").integers(0, 1 << 30, size=8)
        assert not (a == b).all()

    def test_spawn_namespacing(self):
        f = RngFactory(1)
        child = f.spawn("sub")
        a = child.generator("x").integers(0, 1 << 30, size=8)
        b = f.generator("x").integers(0, 1 << 30, size=8)
        assert not (a == b).all()
        assert child.seed == f.seed

    def test_negative_trial_rejected(self):
        with pytest.raises(ValueError):
            RngFactory(1).generator("x", trial=-1)


_FACTORIES = {
    "seed0": lambda: RngFactory(0),
    "seed2013": lambda: RngFactory(2013),
    "two-entropy-words": lambda: RngFactory(2**40),
    "five-entropy-words": lambda: RngFactory(2**130),
    "default": lambda: RngFactory(),
    "spawned": lambda: RngFactory(2013).spawn("sub"),
}

_COUNTERS = {
    "zero": [0],
    "one": [1],
    "last-one-word": [2**32 - 1],
    "random-batch": np.random.default_rng(5).integers(0, 2**32, size=300).tolist(),
    "crosses-2**32": list(range(2**32 - 3, 2**32 + 3)) + [7, 2**40],
}


class TestPcg64States:
    """The bulk derivation must reproduce ``generator``'s streams exactly,
    on whatever NumPy the suite runs against."""

    @pytest.mark.parametrize("factory", _FACTORIES.values(), ids=_FACTORIES)
    @pytest.mark.parametrize("counters", _COUNTERS.values(), ids=_COUNTERS)
    def test_equals_generator(self, factory, counters):
        f = factory()
        states = f.pcg64_states("eventsim-service", counters)
        assert len(states) == len(counters)
        stream = np.random.Generator(np.random.PCG64(0))
        for counter, state in zip(counters, states):
            reference = f.generator("eventsim-service", trial=counter)
            assert state == reference.bit_generator.state, counter
            stream.bit_generator.state = state
            assert np.array_equal(
                stream.standard_exponential(64),
                reference.standard_exponential(64),
            ), counter

    def test_empty(self):
        assert RngFactory(1).pcg64_states("x", []) == []

    def test_negative_counter_rejected(self):
        with pytest.raises(ValueError):
            RngFactory(1).pcg64_states("x", [3, -1])

    def test_disagreement_with_numpy_is_loud(self, monkeypatch):
        monkeypatch.setattr(rng_module, "_INIT_B", rng_module._INIT_B ^ 1)
        with pytest.raises(RuntimeError, match="SeedSequence"):
            RngFactory(1).pcg64_states("x", [0, 1])


class TestAsGenerator:
    def test_none_uses_default_seed(self):
        a = as_generator(None).integers(0, 1 << 30, size=4)
        b = RngFactory(DEFAULT_SEED).generator("default").integers(0, 1 << 30, size=4)
        assert (a == b).all()

    def test_int_seed(self):
        a = as_generator(5, "lbl").integers(0, 1 << 30, size=4)
        b = as_generator(5, "lbl").integers(0, 1 << 30, size=4)
        assert (a == b).all()

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert as_generator(gen) is gen

    def test_factory_derives(self):
        f = RngFactory(3)
        a = as_generator(f, "lbl").integers(0, 1 << 30, size=4)
        b = f.generator("lbl").integers(0, 1 << 30, size=4)
        assert (a == b).all()

    def test_rejects_garbage(self):
        with pytest.raises(TypeError):
            as_generator("a string")


class TestLoadVector:
    def test_derived_quantities(self):
        v = LoadVector(loads=np.array([10.0, 30.0, 20.0]), total_rate=90.0)
        assert v.n_nodes == 3
        assert v.max_load == 30.0
        assert v.backend_rate == pytest.approx(60.0)
        assert v.even_split == pytest.approx(30.0)
        assert v.normalized_max == pytest.approx(1.0)

    def test_cache_absorption_shows_in_gain(self):
        # Offered 90 qps, only 30 reached the back end: gain can be < 1.
        v = LoadVector(loads=np.array([10.0, 10.0, 10.0]), total_rate=90.0)
        assert v.normalized_max == pytest.approx(1.0 / 3.0)

    def test_percentile(self):
        v = LoadVector(loads=np.linspace(0, 100, 101), total_rate=1.0)
        assert v.percentile(50) == pytest.approx(50.0)

    def test_zero_rate_gain(self):
        v = LoadVector(loads=np.array([0.0, 0.0]), total_rate=0.0)
        assert v.normalized_max == 0.0

    def test_rejects_negative_loads(self):
        with pytest.raises(ConfigurationError):
            LoadVector(loads=np.array([-1.0]), total_rate=1.0)

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            LoadVector(loads=np.array([]), total_rate=1.0)


class TestLoadReport:
    def test_aggregates(self):
        report = LoadReport(
            normalized_max_per_trial=np.array([1.0, 3.0, 2.0]),
            total_rate=100.0,
            n_nodes=10,
        )
        assert report.trials == 3
        assert report.worst_case == 3.0
        assert report.mean == pytest.approx(2.0)
        assert report.std == pytest.approx(1.0)

    def test_single_trial_std_zero(self):
        report = LoadReport(
            normalized_max_per_trial=np.array([1.5]), total_rate=1.0, n_nodes=2
        )
        assert report.std == 0.0

    def test_metadata_kept(self):
        report = LoadReport(
            normalized_max_per_trial=np.array([1.0]),
            total_rate=1.0,
            n_nodes=2,
            metadata={"x": 42},
        )
        assert report.metadata["x"] == 42

    def test_rejects_empty_trials(self):
        with pytest.raises(ConfigurationError):
            LoadReport(normalized_max_per_trial=np.array([]), total_rate=1.0, n_nodes=2)
