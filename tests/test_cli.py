"""Tests for the command-line interface."""

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

    def test_replay_keeps_event_driven_flags(self):
        args = build_parser().parse_args(
            ["replay", "--chaos-schedule", "s.json", "--retry", "2",
             "--window", "7.5"]
        )
        assert (args.chaos_schedule, args.retry, args.window) == ("s.json", 2, 7.5)
        assert build_parser().parse_args(["tree", "--window", "0.5"]).window == 0.5

    def test_replay_has_no_offline_attribution_mode(self, capsys):
        for flag in (["--attribution", "t.jsonl"], ["--events-log", "e.jsonl"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["replay"] + flag)
        capsys.readouterr()
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


class TestTreeCLI:
    """``repro tree``: the shard-flood vs flat/tree comparison."""

    ARGS = [
        "tree", "-n", "10", "-m", "200", "-c", "8", "-d", "2",
        "--rate", "1000", "--edges", "2", "--aggregates", "1",
        "--queries", "300", "--trials", "1", "--seed", "3",
    ]

    def test_tree_flags(self):
        args = build_parser().parse_args(self.ARGS)
        assert args.command == "tree"
        assert args.edges == 2
        assert args.aggregates == 1
        assert args.layer_selection == "two-choice"

    def test_tree_compares_defenses(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "shard-flood:" in out
        assert "Theorem-2 bound" in out
        assert "defense: flat" in out
        assert "defense: tree[2x1 two-choice]" in out
        # Only the tree defense reports the per-layer overlay.
        assert out.count("per-layer shard load") == 1

    def test_tree_parallel_matches_serial(self, capsys):
        assert main(self.ARGS) == 0
        serial = capsys.readouterr().out
        assert main(self.ARGS + ["--workers", "2"]) == 0
        assert capsys.readouterr().out == serial
