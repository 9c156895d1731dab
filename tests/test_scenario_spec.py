"""Spec-model tests: round-trip identity and path-reporting validation.

Property tests (hypothesis) pin the serialisation contract — a spec
survives ``to_dict``/``from_dict`` and YAML/JSON text round trips
unchanged — and the failure contract: unknown keys, bad enum values and
type errors raise :class:`ScenarioValidationError` whose ``path``
names the offending field, and schema-version drift hard-fails exactly
like :mod:`repro.perf.schema`.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ScenarioValidationError
from repro.scenario.spec import (
    SPEC_VERSION,
    CampaignSpec,
    ComponentSpec,
    ScenarioSpec,
    dumps_spec,
    loads_spec,
)

try:
    import yaml  # noqa: F401
    HAVE_YAML = True
except ImportError:  # pragma: no cover
    HAVE_YAML = False


# --- strategies ----------------------------------------------------------

#: Printable ASCII, no leading/trailing whitespace: spec names travel
#: through YAML, JSON and filesystem-ish campaign labels.
_names = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126),
    min_size=1,
    max_size=20,
).filter(lambda s: s.strip() == s and s)

_systems = st.fixed_dictionaries({
    "n": st.integers(4, 60),
    "m": st.integers(20, 800),
    "c": st.integers(1, 15),
    "d": st.integers(1, 3),
    "rate": st.floats(1.0, 1e6, allow_nan=False, allow_infinity=False),
})

#: Components with plain-data params; kinds need not resolve in the
#: registry — parsing is registry-independent by design (`check_spec`
#: does the registry pass).
_workloads = st.one_of(
    st.just("uniform"),
    st.fixed_dictionaries({"kind": st.just("zipf"), "s": st.floats(0.5, 2.0, allow_nan=False)}),
    st.fixed_dictionaries({"kind": st.just("adversarial"), "x": st.integers(1, 20)}),
)
_adversaries = st.one_of(
    st.just("uniform"),
    st.fixed_dictionaries({"kind": st.just("subset-flood"), "x": st.integers(1, 20)}),
)
_caches = st.sampled_from(["perfect", "lru", {"kind": "tinylfu", "inner": "lru"}])
_engines = st.sampled_from(["monte-carlo", {"kind": "event-driven", "service": "exponential"}])


@st.composite
def scenario_dicts(draw):
    data = {
        "scenario": SPEC_VERSION,
        "name": draw(_names),
        "system": draw(_systems),
        "trials": draw(st.integers(1, 10)),
        "queries": draw(st.integers(1, 10_000)),
        "seed": draw(st.integers(-1000, 1000)),
        "workers": draw(st.integers(0, 4)),
    }
    if draw(st.booleans()):
        data["workload"] = draw(_workloads)
    else:
        data["adversary"] = draw(_adversaries)
    if draw(st.booleans()):
        data["cache"] = draw(_caches)
    if draw(st.booleans()):
        data["engine"] = draw(_engines)
    if draw(st.booleans()):
        data["chaos"] = {"kind": "renewal", "failure_rate": 0.1}
    return data


@st.composite
def campaign_dicts(draw):
    base = draw(scenario_dicts())
    base.pop("scenario")
    base.pop("workers", None)
    data = {
        "campaign": SPEC_VERSION,
        "name": draw(_names),
        "base": base,
    }
    sweep = {}
    if draw(st.booleans()):
        sweep["system.d"] = draw(
            st.lists(st.integers(1, 3), min_size=1, max_size=3, unique=True)
        )
    if draw(st.booleans()):
        sweep["cache.kind"] = draw(
            st.lists(
                st.sampled_from(["lru", "fifo", "sieve"]),
                min_size=1, max_size=3, unique=True,
            )
        )
    if sweep:
        data["sweep"] = sweep
    return data


# --- round trips ---------------------------------------------------------

class TestRoundTrip:
    @given(data=scenario_dicts())
    @settings(max_examples=60, deadline=None)
    def test_scenario_dict_round_trip(self, data):
        spec = ScenarioSpec.from_dict(data)
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    @given(data=scenario_dicts())
    @settings(max_examples=40, deadline=None)
    def test_scenario_json_round_trip(self, data):
        spec = ScenarioSpec.from_dict(data)
        assert loads_spec(dumps_spec(spec, fmt="json"), fmt="json") == spec

    @pytest.mark.skipif(not HAVE_YAML, reason="PyYAML not installed")
    @given(data=scenario_dicts())
    @settings(max_examples=40, deadline=None)
    def test_scenario_yaml_round_trip(self, data):
        spec = ScenarioSpec.from_dict(data)
        assert loads_spec(dumps_spec(spec, fmt="yaml"), fmt="yaml") == spec

    @given(data=campaign_dicts())
    @settings(max_examples=40, deadline=None)
    def test_campaign_round_trip(self, data):
        spec = CampaignSpec.from_dict(data)
        assert CampaignSpec.from_dict(spec.to_dict()) == spec
        assert loads_spec(dumps_spec(spec, fmt="json"), fmt="json") == spec

    @given(data=campaign_dicts())
    @settings(max_examples=30, deadline=None)
    def test_expansion_is_deterministic_and_named(self, data):
        spec = CampaignSpec.from_dict(data)
        first, second = spec.expand(), spec.expand()
        assert first == second
        size = 1
        for axis in spec.grid_shape:
            size *= axis
        assert len(first) == size
        assert len({s.name for s in first}) == len(first)
        for scenario in first:
            assert scenario.name.startswith(spec.name)

    def test_bare_string_components_stay_bare(self):
        spec = ScenarioSpec.from_dict({
            "scenario": 1, "name": "s",
            "system": {"n": 4, "m": 20, "c": 1, "d": 2},
            "workload": "uniform",
        })
        data = spec.to_dict()
        assert data["workload"] == "uniform"
        assert data["cache"] == "perfect"


# --- validation errors ---------------------------------------------------

def _base(**over):
    data = {
        "scenario": 1,
        "name": "t",
        "system": {"n": 10, "m": 100, "c": 5, "d": 2, "rate": 100.0},
        "workload": "uniform",
    }
    data.update(over)
    return data


class TestValidationErrors:
    def _expect(self, data, path_fragment):
        with pytest.raises(ScenarioValidationError) as err:
            ScenarioSpec.from_dict(data)
        assert path_fragment in (err.value.path or ""), (
            f"expected path containing {path_fragment!r}, "
            f"got {err.value.path!r}: {err.value}"
        )
        assert path_fragment in str(err.value)
        return err.value

    def test_unknown_top_level_key(self):
        self._expect(_base(bogus=1), "bogus")

    def test_unknown_system_key(self):
        data = _base()
        data["system"]["replicas"] = 3
        self._expect(data, "system.replicas")

    def test_version_drift_hard_fails(self):
        err = self._expect(_base(scenario=2), "scenario")
        assert "schema" in str(err)

    def test_missing_version_key(self):
        data = _base()
        del data["scenario"]
        self._expect(data, "scenario")

    def test_both_workload_and_adversary(self):
        self._expect(_base(adversary="uniform"), "workload")

    def test_neither_workload_nor_adversary(self):
        data = _base()
        del data["workload"]
        self._expect(data, "workload")

    def test_bool_is_not_an_int(self):
        self._expect(_base(trials=True), "trials")

    def test_trials_minimum(self):
        self._expect(_base(trials=0), "trials")

    def test_component_needs_kind(self):
        self._expect(_base(cache={"capacity": 4}), "cache")

    def test_component_params_must_be_plain_data(self):
        self._expect(_base(cache={"kind": "lru", "weird": object()}), "cache.weird")

    def test_null_component_section(self):
        self._expect(_base(chaos=None), "chaos")

    def test_system_constraint_errors_carry_path(self):
        data = _base()
        data["system"]["n"] = -3
        self._expect(data, "system")

    def test_path_attribute_matches_message_prefix(self):
        with pytest.raises(ScenarioValidationError) as err:
            ScenarioSpec.from_dict(_base(queries="many"))
        assert str(err.value).startswith(err.value.path)


class TestCampaignValidation:
    def _campaign(self, **over):
        data = {
            "campaign": 1,
            "name": "camp",
            "base": {
                "system": {"n": 10, "m": 100, "c": 5, "d": 2},
                "workload": "uniform",
            },
        }
        data.update(over)
        return data

    def _expect(self, data, path_fragment):
        with pytest.raises(ScenarioValidationError) as err:
            CampaignSpec.from_dict(data)
        assert path_fragment in (err.value.path or "")
        return err.value

    def test_campaign_version_drift(self):
        self._expect(self._campaign(campaign="1"), "campaign")

    def test_base_inherits_name_and_version(self):
        spec = CampaignSpec.from_dict(self._campaign())
        assert spec.base.name == "camp"

    def test_empty_sweep_values(self):
        self._expect(self._campaign(sweep={"system.d": []}), "sweep.system.d")

    def test_unresolvable_sweep_path(self):
        self._expect(
            self._campaign(sweep={"flux.capacitor": [1]}), "sweep.flux.capacitor"
        )

    def test_sweep_must_not_override_name(self):
        self._expect(self._campaign(sweep={"name": ["a"]}), "sweep.name")

    def test_sweep_value_that_breaks_base_validation(self):
        self._expect(self._campaign(sweep={"trials": [0]}), "trials")

    def test_bare_component_shorthand_expands_for_param_sweeps(self):
        spec = CampaignSpec.from_dict(
            self._campaign(sweep={"workload.s": [1.0, 1.2]})
        )
        kinds = {s.workload.kind for s in spec.expand()}
        assert kinds == {"uniform"}
        assert [s.workload.params["s"] for s in spec.expand()] == [1.0, 1.2]

    def test_component_values_are_named_by_kind(self):
        spec = CampaignSpec.from_dict(self._campaign(sweep={"workload": [
            "uniform",
            {"kind": "zipf", "s": 1.0},
            {"kind": "zipf", "s": 1.2},
            {"kind": "uniform"},
            {"kind": "subset-flood", "x": 20},
        ], "system.d": [2, 3]}))
        # A kind alone when unique on the axis, kind@position when shared
        # (with a bare string too); scalar labels are unchanged.
        labels = ["uniform", "zipf@1", "zipf@2", "uniform@3", "subset-flood"]
        assert [s.name for s in spec.expand()] == [
            f"camp/system.d={d}/workload={label}" for d in (2, 3) for label in labels
        ]

    def test_loads_spec_dispatches_on_version_key(self):
        scenario = loads_spec(
            '{"scenario": 1, "name": "s", '
            '"system": {"n": 4, "m": 20, "c": 1, "d": 2}, '
            '"workload": "uniform"}',
            fmt="json",
        )
        assert isinstance(scenario, ScenarioSpec)
        with pytest.raises(ScenarioValidationError) as err:
            loads_spec('{"name": "s"}', fmt="json")
        assert "version key" in str(err.value)

    def test_specs_are_frozen(self):
        spec = CampaignSpec.from_dict(self._campaign())
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.name = "other"
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.base.trials = 99

    def test_component_spec_to_data_forms(self):
        assert ComponentSpec("lru").to_data() == "lru"
        assert ComponentSpec("zipf", {"s": 1.1}).to_data() == {
            "kind": "zipf", "s": 1.1,
        }
