"""Tests for the command-line interface."""

from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figure_flags(self):
        args = build_parser().parse_args(["fig3a", "--trials", "5", "--seed", "1"])
        assert args.command == "fig3a"
        assert args.trials == 5
        assert args.seed == 1

    @pytest.mark.parametrize("command", ["fig3a", "fig3b", "fig4", "fig5a", "fig5b", "all"])
    @pytest.mark.parametrize(
        "flag", [["--chaos-schedule", "s.json"], ["--retry", "2"], ["--window", "7.5"]]
    )
    def test_figures_reject_event_driven_only_flags(self, command, flag, capsys):
        # Monte-Carlo trials have no clock: a schedule, a retry policy or
        # a window width would be printed but never simulated.
        with pytest.raises(SystemExit):
            build_parser().parse_args([command] + flag)
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["replay", "tree"])
    def test_event_driven_attacks_are_specs_not_commands(self, command, capsys):
        # Their defaults ship as examples/specs/*.yaml for `scenario run`.
        with pytest.raises(SystemExit):
            build_parser().parse_args([command])
        assert "invalid choice" in capsys.readouterr().err

    def test_scenario_run_takes_the_instrument_flags(self):
        args = build_parser().parse_args(
            ["scenario", "run", "s.yaml", "--monitor", "--window", "7.5",
             "--events-out", "e.jsonl", "--alerts", "--dashboard", "d.html",
             "--metrics-out", "m.json", "--metrics-prom", "m.prom",
             "--trace-out", "t.jsonl", "--forensics-out", "f.html"]
        )
        assert (args.window, args.events_out, args.dashboard) == (
            7.5, "e.jsonl", "d.html"
        )
        assert (args.metrics_out, args.trace_out) == ("m.json", "t.jsonl")

    def test_forensics_takes_the_event_log(self):
        args = build_parser().parse_args(["forensics", "t.jsonl", "--events-log", "e.jsonl"])
        assert (args.trace, args.events_log) == ("t.jsonl", "e.jsonl")

    def test_provision_flags(self):
        args = build_parser().parse_args(
            ["provision", "-n", "100", "-m", "5000", "-d", "3", "-c", "50"]
        )
        assert args.nodes == 100
        assert args.cache == 50


class TestCommands:
    def test_provision_output(self, capsys):
        code = main(
            ["provision", "-n", "1000", "-m", "100000", "-d", "3", "-c", "200", "--k", "1.2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "c* = 1201" in out
        assert "VULNERABLE" in out

    def test_provision_protected(self, capsys):
        main(["provision", "-n", "1000", "-m", "100000", "-d", "3", "-c", "5000", "--k", "1.2"])
        assert "PROTECTED" in capsys.readouterr().out

    def test_plan_output(self, capsys):
        code = main(["plan", "-n", "1000", "-m", "100000", "-d", "3", "-c", "2000"])
        out = capsys.readouterr().out
        assert code == 0
        assert "replicated" in out
        assert "SoCC'11" in out

    def test_calibrate_output(self, capsys):
        code = main(
            ["calibrate", "--nodes", "100", "--replication", "3",
             "--balls", "2000", "--trials", "5", "--seed", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "measured k'" in out
        assert "folded k" in out

    def test_figure_chaos_reports_only_what_monte_carlo_simulates(self, capsys):
        assert main(["fig3b", "--chaos", "--trials", "1", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        chaos_lines = [line for line in out.splitlines() if "chaos" in line]
        # The header line and the result table's config line.
        assert len(chaos_lines) == 2
        for line in chaos_lines:
            assert "failure_rate=0.02/s, mttr=0.25s" in line
            assert "steady-state down fraction 0.005" in line
            assert "retry" not in line and "serve_stale" not in line

    def test_figure_quick_run(self, capsys):
        code = main(["fig5b", "--trials", "2", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "fig5b" in out
        assert "x_queried" in out


class TestScenarioCLI:
    """The ``scenario`` subcommand: run / list / validate / sweep.

    Specs are written as JSON (``load_spec`` dispatches on suffix) so
    these tests do not depend on PyYAML.
    """

    NAMESPACES = (
        "workload", "cache", "partitioner", "selection",
        "layer-selection", "adversary", "chaos", "engine",
    )

    @staticmethod
    def _write(tmp_path, name, payload):
        import json

        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    @classmethod
    def _scenario(cls, tmp_path, **over):
        data = {
            "scenario": 1,
            "name": "cli/tiny",
            "system": {"n": 8, "m": 60, "c": 3, "d": 2, "rate": 500.0},
            "adversary": {"kind": "subset-flood", "x": 4},
            "trials": 1,
            "queries": 200,
            "seed": 2,
        }
        data.update(over)
        return cls._write(tmp_path, "spec.json", data)

    @classmethod
    def _campaign(cls, tmp_path):
        return cls._write(tmp_path, "campaign.json", {
            "campaign": 1,
            "name": "cli/grid",
            "base": {
                "name": "cli/grid",
                "system": {"n": 8, "m": 60, "c": 3, "d": 2, "rate": 500.0},
                "adversary": {"kind": "subset-flood", "x": 4},
                "trials": 1,
                "queries": 200,
                "seed": 2,
            },
            "sweep": {"system.d": [1, 2]},
        })

    def test_scenario_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenario"])

    def test_list_covers_every_namespace(self, capsys):
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        for namespace in self.NAMESPACES:
            assert f"{namespace}:" in out
        assert "lru" in out and "monte-carlo" in out

    def test_list_examples_show_params(self, capsys):
        assert main(["scenario", "list", "--namespace", "adversary",
                     "--examples"]) == 0
        out = capsys.readouterr().out
        assert "subset-flood" in out
        assert "'x':" in out  # the materialised example params

    def test_list_unknown_namespace_fails(self, capsys):
        assert main(["scenario", "list", "--namespace", "bogus"]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_validate_ok(self, tmp_path, capsys):
        path = self._scenario(tmp_path)
        assert main(["scenario", "validate", path]) == 0
        assert "OK" in capsys.readouterr().out

    def test_validate_reports_unknown_kind_with_path(self, tmp_path, capsys):
        path = self._scenario(
            tmp_path, adversary={"kind": "no-such-thing"}
        )
        assert main(["scenario", "validate", path]) == 2
        err = capsys.readouterr().err
        assert "adversary.kind" in err
        assert "choose from" in err

    def test_validate_reports_spec_error_with_path(self, tmp_path, capsys):
        path = self._scenario(tmp_path, trials=0)
        assert main(["scenario", "validate", path]) == 2
        assert "trials" in capsys.readouterr().err

    def test_validate_mixed_batch_still_checks_all(self, tmp_path, capsys):
        good = self._scenario(tmp_path)
        bad = self._write(tmp_path, "bad.json", {"name": "x"})
        assert main(["scenario", "validate", bad, good]) == 2
        captured = capsys.readouterr()
        assert "OK" in captured.out  # the good spec was still reported

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_unknown_engine_param_names_its_path(
        self, tmp_path, capsys, command
    ):
        path = self._scenario(
            tmp_path, engine={"kind": "monte-carlo", "exact_rate": False}
        )
        assert main(["scenario", command, path]) == 2
        err = capsys.readouterr().err
        assert "engine.exact_rate" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "selection",
        ["random-pin", "primary", "round-robin", "least-utilized",
         {"kind": "least-loaded", "bogus": 1}],
    )
    def test_event_driven_rejects_unreplayable_selection(
        self, tmp_path, capsys, selection
    ):
        path = self._scenario(
            tmp_path, engine="event-driven", selection=selection
        )
        assert main(["scenario", "run", path]) == 2
        err = capsys.readouterr().err
        assert "scenario run: selection:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize(
        "over, path",
        [
            ({"engine": "event-driven", "selection": "round-robin"}, "selection"),
            ({"cache": "lru"}, "cache"),
        ],
        ids=["event-driven-round-robin", "monte-carlo-lru"],
    )
    def test_validate_rejects_what_run_rejects(
        self, tmp_path, capsys, command, over, path
    ):
        spec = self._scenario(tmp_path, **over)
        assert main(["scenario", command, spec]) == 2
        err = capsys.readouterr().err
        assert f"scenario {command}: " in err and f"{path}:" in err
        assert "Traceback" not in err

    def test_event_driven_has_no_routing_param(self, tmp_path, capsys):
        path = self._scenario(
            tmp_path, engine={"kind": "event-driven", "routing": "random"}
        )
        assert main(["scenario", "run", path]) == 2
        err = capsys.readouterr().err
        assert "engine.routing" in err
        assert "Traceback" not in err

    def test_run_prints_stats(self, tmp_path, capsys):
        assert main(["scenario", "run", self._scenario(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "worst_case" in out
        assert "cli/tiny" in out

    def test_run_json_output_parses(self, tmp_path, capsys):
        import json

        path = self._scenario(tmp_path)
        assert main(["scenario", "run", path, "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["engine"] == "monte-carlo"
        assert stats["trials"] == 1

    def test_run_rejects_campaign_spec(self, tmp_path, capsys):
        assert main(["scenario", "run", self._campaign(tmp_path)]) == 2
        assert "scenario sweep" in capsys.readouterr().err

    def test_sweep_rejects_scenario_spec(self, tmp_path, capsys):
        assert main(["scenario", "sweep", self._scenario(tmp_path)]) == 2
        assert "scenario run" in capsys.readouterr().err

    def test_sweep_writes_manifest_and_report(self, tmp_path, capsys):
        import json

        out_dir = tmp_path / "out"
        code = main(["scenario", "sweep", self._campaign(tmp_path),
                     "--out", str(out_dir)])
        out = capsys.readouterr().out
        assert code == 0
        assert "[1/2]" in out and "[2/2]" in out
        assert "manifest written to" in out
        manifest = json.loads((out_dir / "cli_grid.manifest.json").read_text())
        assert manifest["campaign"] == "cli/grid"
        assert len(manifest["scenarios"]) == 2
        assert (out_dir / "cli_grid.html").read_text().startswith("<!")

    def test_run_missing_file_is_validation_error(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert main(["scenario", "run", missing]) == 2
        assert "nope.json" in capsys.readouterr().err


SPECS = Path(__file__).resolve().parent.parent / "examples" / "specs"


@pytest.fixture
def yaml_specs():
    pytest.importorskip("yaml")
    return SPECS


class TestReplaySpec:
    """``examples/specs/replay.yaml``: the traced forensic run."""

    def test_spec_matches_a_direct_event_campaign(
        self, yaml_specs, tmp_path, capsys
    ):
        from repro.adversary.strategies import OptimalAdversary
        from repro.core.notation import SystemParameters
        from repro.obs import FlightRecorder, LoadMonitor, MonitorConfig, RunContext
        from repro.obs.trace import TraceConfig
        from repro.sim.batch import run_event_campaign

        events, trace = tmp_path / "e.jsonl", tmp_path / "t.jsonl"
        assert main(["scenario", "run", str(yaml_specs / "replay.yaml"),
                     "--events-out", str(events),
                     "--trace-out", str(trace)]) == 0
        capsys.readouterr()

        params = SystemParameters(n=200, m=50_000, c=60, d=3, rate=50_000.0)
        adversary = OptimalAdversary(params, k_prime=0.75)
        context = RunContext(
            monitor=LoadMonitor(
                MonitorConfig.from_params(params, x=adversary.x, window=0.1)
            ),
            trace=FlightRecorder(TraceConfig(sample=0.5), seed=7),
        )
        run_event_campaign(
            params, adversary.distribution(), trials=2, n_queries=10_000,
            seed=7, context=context,
        )
        context.monitor.events.write(tmp_path / "direct_e.jsonl")
        context.trace.write(tmp_path / "direct_t.jsonl")
        assert events.read_bytes() == (tmp_path / "direct_e.jsonl").read_bytes()
        assert trace.read_bytes() == (tmp_path / "direct_t.jsonl").read_bytes()

        assert main(["forensics", str(trace), "--events-log", str(events)]) == 0
        out = capsys.readouterr().out
        for trial in (0, 1):
            assert (
                f"trial {trial}: recomputed suspects MATCH the live "
                "run-summary block"
            ) in out


class TestTreeCLI:
    """``examples/specs/tree*.yaml``: the shard flood vs flat and tree."""

    def test_tree_specs_validate(self, yaml_specs, capsys):
        assert main(["scenario", "validate", str(yaml_specs / "tree.yaml"),
                     str(yaml_specs / "tree-vs-flat.yaml")]) == 0
        out = capsys.readouterr().out
        assert "scenario 'tree'" in out
        assert "campaign 'tree-vs-flat' (2 scenarios)" in out

    def test_tree_compares_defenses(self, yaml_specs, capsys):
        assert main(["scenario", "sweep",
                     str(yaml_specs / "tree-vs-flat.yaml")]) == 0
        out = capsys.readouterr().out
        worst = {
            ("tree" if "cache=tree" in line else "flat"): float(
                line.rsplit("worst_case=", 1)[1]
            )
            for line in out.splitlines()
            if "worst_case=" in line
        }
        # The values the flat-vs-tree comparison has always printed.
        assert worst == {"flat": 0.07773, "tree": 0.007523}

    def test_tree_parallel_matches_serial(self, yaml_specs, capsys):
        args = ["scenario", "run", str(yaml_specs / "tree.yaml"), "--monitor"]
        assert main(args) == 0
        serial = capsys.readouterr().out
        # Only a cache tree's monitor panel carries the per-layer lines.
        assert serial.count("per-layer shard load") == 1
        # One row per trial and layer, labelled with the run's trial.
        rows = [line.split(" (", 1)[0] for line in serial.splitlines()
                if line.startswith("  trial ") and " layer " in line]
        assert rows == ["  trial 0 layer 0", "  trial 0 layer 1",
                        "  trial 1 layer 0", "  trial 1 layer 1"]
        assert main(args + ["--workers", "2"]) == 0
        assert capsys.readouterr().out == serial
