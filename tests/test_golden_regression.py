"""Golden regression tests: recompute the committed fixtures and compare.

The fixtures under ``tests/golden/`` pin reproduced paper numbers —
analytic bound curves, the static-failure unavailability formula, a
seeded small-system Figure-3 curve, and one seeded event-driven run with
the online monitor attached and chaos *off*.  Any drift means a change
moved reproduced numbers; regenerate deliberately with
``PYTHONPATH=src python tests/golden/make_golden.py`` and say so in the
commit message.
"""

import importlib.util
import json
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).parent / "golden"

#: Analytic fixtures compare numerically at this tolerance; the
#: event-driven baseline compares *exactly* (it is a byte-level
#: chaos-off contract, not a float-stability check).
TOLERANCE = 1e-9


@pytest.fixture(scope="module")
def make_golden():
    """The fixture-generation module, loaded from its script file."""
    spec = importlib.util.spec_from_file_location(
        "make_golden", GOLDEN_DIR / "make_golden.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load(name: str) -> dict:
    path = GOLDEN_DIR / name
    assert path.exists(), f"missing committed fixture {path}"
    return json.loads(path.read_text(encoding="utf-8"))


def _roundtrip(payload: dict) -> dict:
    """Normalise through JSON exactly like the fixture writer does."""
    return json.loads(json.dumps(payload, sort_keys=True, allow_nan=False))


def _assert_close(fresh, pinned, path="$"):
    """Recursive comparison: floats at TOLERANCE, all else exact."""
    if isinstance(pinned, dict):
        assert isinstance(fresh, dict), f"{path}: type changed"
        assert set(fresh) == set(pinned), (
            f"{path}: keys changed {sorted(set(fresh) ^ set(pinned))}"
        )
        for key in pinned:
            _assert_close(fresh[key], pinned[key], f"{path}.{key}")
    elif isinstance(pinned, list):
        assert isinstance(fresh, list), f"{path}: type changed"
        assert len(fresh) == len(pinned), f"{path}: length changed"
        for i, (f, p) in enumerate(zip(fresh, pinned)):
            _assert_close(f, p, f"{path}[{i}]")
    elif isinstance(pinned, bool) or not isinstance(pinned, (int, float)):
        assert fresh == pinned, f"{path}: {fresh!r} != {pinned!r}"
    else:
        assert fresh == pytest.approx(pinned, abs=TOLERANCE, rel=TOLERANCE), (
            f"{path}: {fresh!r} drifted from pinned {pinned!r}"
        )


class TestAnalyticFixtures:
    def test_analytic_bounds(self, make_golden):
        _assert_close(
            _roundtrip(make_golden.analytic_bounds()), _load("analytic_bounds.json")
        )

    def test_failures_expected(self, make_golden):
        _assert_close(
            _roundtrip(make_golden.failures_expected()),
            _load("failures_expected.json"),
        )

    def test_fig3_small_sim(self, make_golden):
        _assert_close(
            _roundtrip(make_golden.fig3_small_sim()), _load("fig3_small_sim.json")
        )


class TestEventSimBaseline:
    """Chaos off must keep the event engine + monitor *byte-identical*
    to the pre-chaos behaviour — the issue's acceptance criterion."""

    def test_exact_equality(self, make_golden):
        fresh = _roundtrip(make_golden.eventsim_baseline())
        pinned = _load("eventsim_baseline.json")
        assert fresh == pinned

    def test_baseline_carries_no_chaos_fields(self):
        pinned = _load("eventsim_baseline.json")
        for window in pinned["windows"]:
            assert "effective_d" not in window
            assert "degraded_bound" not in window
            assert "unavailable" not in window
        for summary in pinned["summaries"]:
            assert "unavailable" not in summary
            assert "effective_d_min" not in summary


class TestInstruments:
    """The monitor's chaos and layer paths and the flight recorder,
    pinned byte for byte on the scenario fixtures and the replay spec."""

    def test_exact_equality(self, make_golden):
        fresh = _roundtrip(make_golden.instruments())
        pinned = _load("instruments.json")
        assert fresh == pinned

    def test_pins_every_record_kind(self):
        pinned = _load("instruments.json")
        chaos = pinned["chaos-on.yaml"]["events"]
        assert any(r["type"] == "node-event" for r in chaos)
        assert any("effective_d" in r for r in chaos)
        assert any(
            "layer_hits" in r for r in pinned["tree-paper-default.yaml"]["events"]
        )
        replay = pinned["replay.yaml"]
        assert replay["trace"]["records"] > 0
        assert all(
            "suspects" in r for r in replay["events"] if r["type"] == "run-summary"
        )
