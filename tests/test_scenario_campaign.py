"""Golden scenario determinism suite.

Three pinned scenario specs plus one sweep campaign live under
``tests/golden/scenarios/``.  Each must produce *bit-identical* results
serial vs ``workers=4`` — the engines seed every trial explicitly, so
the process pool is a pure wall-clock optimisation — and both must
match the committed ``expected.json`` exactly (regenerate with
``PYTHONPATH=src python tests/golden/make_golden.py`` only when a
change is *intended* to move reproduced numbers).

The campaign half additionally locks the manifest layer: schema
validation hard-fails on drift, the deterministic view strips exactly
the provenance fields, and the written manifest + HTML report are
self-consistent.
"""

import json
from pathlib import Path

import pytest

pytest.importorskip("yaml", reason="golden scenario fixtures are YAML")

from repro.exceptions import ScenarioValidationError
from repro.perf.harness import smoke_mode
from repro.scenario import load_spec, run_campaign, run_scenario
from repro.scenario.campaign import _apply_smoke
from repro.scenario.manifest import (
    deterministic_view,
    validate_campaign_manifest,
)
from repro.scenario.spec import CampaignSpec, ScenarioSpec

SCENARIO_DIR = Path(__file__).parent / "golden" / "scenarios"
EXPECTED = json.loads((SCENARIO_DIR / "expected.json").read_text())

#: Wired explicitly so an unpinned fixture file fails the census test
#: below instead of silently going untested.
SCENARIO_FILES = (
    "chaos-on.yaml",
    "paper-default.yaml",
    "stealth-adversary.yaml",
    "tree-paper-default.yaml",
    "tree-stealth-shard.yaml",
)
CAMPAIGN_FILES = ("sweep-grid.yaml", "tree-sweep.yaml")


@pytest.fixture(autouse=True)
def _full_fidelity(monkeypatch):
    """The pinned numbers are full runs; never compare under smoke caps."""
    monkeypatch.delenv("REPRO_BENCH_SMOKE", raising=False)


def _normalize(stats: dict) -> dict:
    """JSON round trip: compare what a manifest would actually store."""
    return json.loads(json.dumps(stats, sort_keys=True, allow_nan=False))


class TestGoldenScenarios:
    def test_fixture_census(self):
        on_disk = {p.name for p in SCENARIO_DIR.glob("*.yaml")}
        assert on_disk == set(SCENARIO_FILES) | set(CAMPAIGN_FILES)
        assert set(EXPECTED["scenarios"]) == set(SCENARIO_FILES)
        assert set(EXPECTED["campaigns"]) == set(CAMPAIGN_FILES)

    @pytest.mark.parametrize("fixture", SCENARIO_FILES)
    def test_serial_matches_workers4_and_pinned(self, fixture):
        spec = load_spec(SCENARIO_DIR / fixture)
        assert isinstance(spec, ScenarioSpec)
        serial = run_scenario(spec)
        parallel = run_scenario(spec, workers=4)
        assert serial.stats == parallel.stats, (
            f"{fixture}: stats differ between serial and workers=4"
        )
        assert _normalize(serial.stats) == EXPECTED["scenarios"][fixture], (
            f"{fixture}: stats moved off the pinned golden values — if "
            "intended, regenerate tests/golden/scenarios/expected.json"
        )


class TestGoldenCampaign:
    @pytest.mark.parametrize("fixture", CAMPAIGN_FILES)
    def test_sweep_is_worker_invariant_and_pinned(self, fixture, tmp_path):
        campaign = load_spec(SCENARIO_DIR / fixture)
        assert isinstance(campaign, CampaignSpec)
        serial = run_campaign(campaign, out_dir=tmp_path)
        parallel = run_campaign(campaign, workers=4)

        view = deterministic_view(serial.manifest)
        assert view == deterministic_view(parallel.manifest)
        assert view == EXPECTED["campaigns"][fixture]

        # Provenance differs per run, the deterministic view never does.
        assert serial.manifest["workers"] != parallel.manifest["workers"]

        # The written artifacts: manifest validates after a disk round
        # trip; the report names every grid cell.
        on_disk = json.loads(serial.manifest_path.read_text())
        assert validate_campaign_manifest(on_disk) == on_disk
        html = serial.report_path.read_text()
        assert len(html) > 200
        for outcome in serial.outcomes:
            assert outcome.spec.name in html


class TestEventSelection:
    """The event engine replays a spec's ``selection`` as kernel routing."""

    @pytest.mark.parametrize(
        "selection, routing", [("least-loaded", "pin"), ("per-query-random", "random")]
    )
    def test_sweep_grid_cells_equal_direct_campaigns(self, selection, routing):
        from functools import partial

        from repro.cache import make_cache
        from repro.cluster.partitioner import RandomTablePartitioner
        from repro.sim.batch import run_event_campaign
        from repro.workload.scan import CyclicScanDistribution

        cells = [
            cell
            for cell in EXPECTED["campaigns"]["sweep-grid.yaml"]["scenarios"]
            if cell["spec"]["selection"] == selection
        ]
        assert len(cells) == 4
        for cell in cells:
            spec = ScenarioSpec.from_dict(cell["spec"])
            params = spec.system
            campaign = run_event_campaign(
                params,
                CyclicScanDistribution(params.m, spec.workload.params["x"]),
                trials=spec.trials,
                n_queries=spec.queries,
                seed=spec.seed,
                cache_factory=partial(make_cache, spec.cache.kind, params.c),
                partitioner=RandomTablePartitioner(
                    params.n, params.d, params.m, seed=spec.seed
                ),
                routing=routing,
            )
            stats = cell["stats"]
            assert campaign.load_report.worst_case == stats["worst_case"]
            assert campaign.load_report.mean == stats["mean"]
            assert campaign.worst_p99_latency == stats["worst_p99_latency"]


class TestManifestContract:
    def _manifest(self):
        campaign = load_spec(SCENARIO_DIR / CAMPAIGN_FILES[0])
        scenarios = campaign.expand()
        from repro.scenario.manifest import campaign_manifest

        return campaign_manifest(
            campaign,
            list(scenarios),
            [{"engine": s.engine.kind} for s in scenarios],
            workers=1,
        )

    def test_schema_drift_hard_fails(self):
        manifest = self._manifest()
        manifest["schema"] = 999
        with pytest.raises(ScenarioValidationError) as err:
            validate_campaign_manifest(manifest)
        assert err.value.path == "manifest.schema"

    def test_missing_field_hard_fails(self):
        manifest = self._manifest()
        del manifest["grid_shape"]
        with pytest.raises(ScenarioValidationError) as err:
            validate_campaign_manifest(manifest)
        assert err.value.path == "manifest.grid_shape"

    def test_bool_workers_rejected(self):
        manifest = self._manifest()
        manifest["workers"] = True
        with pytest.raises(ScenarioValidationError):
            validate_campaign_manifest(manifest)

    def test_deterministic_view_strips_provenance_only(self):
        view = deterministic_view(self._manifest())
        assert set(view) == {
            "schema", "campaign", "spec", "grid_shape", "scenarios",
        }

    def test_smoke_mode_caps_trials_and_queries(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SMOKE", "1")
        spec = load_spec(SCENARIO_DIR / "paper-default.yaml")
        outcome = run_scenario(spec)
        assert outcome.stats["trials"] == 3  # capped from the spec's 4
        assert outcome.spec.queries == 2000  # already at the cap

    @pytest.mark.parametrize(
        "value, smoke", [("1", True), ("true", False), ("0", False), (None, False)]
    )
    def test_smoke_flag_is_exactly_one_for_sweeps_and_benches(
        self, monkeypatch, value, smoke
    ):
        if value is not None:
            monkeypatch.setenv("REPRO_BENCH_SMOKE", value)
        spec = load_spec(SCENARIO_DIR / "paper-default.yaml")
        assert smoke_mode() is smoke
        assert (_apply_smoke(spec).trials == 3) is smoke  # the spec asks for 4
