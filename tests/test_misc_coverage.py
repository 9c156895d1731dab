"""Gap-filling tests: configuration objects, routing behaviour, report
formatting and other paths not covered by the focused suites."""

import numpy as np
import pytest

from repro.core.notation import SystemParameters
from repro.exceptions import ConfigurationError
from repro.sim.analytic import MonteCarloSimulator
from repro.sim.eventsim import EventDrivenSimulator
from repro.workload.adversarial import AdversarialDistribution


class TestSimulationConfig:
    """The simulation configuration: ``MonteCarloSimulator``'s keywords."""

    PARAMS = SystemParameters(n=10, m=100, c=5, d=2, rate=100.0)

    def test_defaults(self):
        report = MonteCarloSimulator(self.PARAMS).distribution_attack(
            AdversarialDistribution(self.PARAMS.m, 20)
        )
        assert report.trials == 200
        assert report.metadata["selection"] == "least-loaded"
        assert "failed_fraction" not in report.metadata

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            MonteCarloSimulator(self.PARAMS, trials=0)
        with pytest.raises(ConfigurationError):
            MonteCarloSimulator(self.PARAMS, trials=5, chaos="not-a-config")


class TestEventsimRouting:
    def _sim(self, routing, seed=9):
        params = SystemParameters(n=10, m=200, c=0, d=3, rate=3000.0)
        return EventDrivenSimulator(
            params,
            AdversarialDistribution(params.m, 30),
            routing=routing,
            seed=seed,
        )

    def test_pin_routing_is_sticky(self):
        """Under 'pin' routing a key always lands on one node: the
        number of nodes with traffic is at most the number of keys."""
        sim = self._sim("pin")
        result = sim.run(6000)
        # 30 keys onto 10 nodes: every key pinned => per-key counts on a
        # single node each; with random routing each key spreads over 3.
        assert (result.arrival_loads.loads > 0).sum() <= 10

    def test_cache_stats_accessible_after_run(self):
        sim = self._sim("pin")
        sim.run(2000)
        assert sim.cache.stats.accesses == 2000


class TestCapacityAwareSelection:
    def test_integration(self):
        from repro.cluster.partitioner import RandomTablePartitioner
        from repro.cluster.selection import LeastUtilizedKeyPinning

        capacities = np.array([10.0, 10.0, 10.0, 10.0, 40.0])
        groups = RandomTablePartitioner(5, 2, 200, seed=4).replica_groups(
            np.arange(200)
        )
        rates = np.full(200, 0.5)
        loads = LeastUtilizedKeyPinning(capacities).node_loads(groups, rates, 5)
        # The 4x node absorbs a clearly larger share.
        assert loads[4] > loads[:4].mean() * 1.5


class TestMainModule:
    def test_python_dash_m_entry(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "repro", "provision", "-n", "100",
             "-m", "1000", "-d", "3", "-c", "50", "--k", "1.2"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert "required cache size" in proc.stdout

    def test_console_help(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--help"])
        assert exc.value.code == 0


class TestReportFormattingEdges:
    def test_precision_control(self):
        from repro.experiments.report import render_table

        text = render_table({"v": [3.14159265]}, precision=2)
        assert "3.1" in text and "3.14159" not in text

    def test_empty_rows_table(self):
        from repro.experiments.report import render_table

        text = render_table({"a": [], "b": []})
        assert "a" in text and "b" in text

    def test_title_rendering(self):
        from repro.experiments.report import render_table

        assert render_table({"a": [1]}, title="T").startswith("T\n")

    def test_bool_column(self):
        from repro.experiments.report import render_table

        text = render_table({"flag": [True, False]})
        assert "True" in text and "False" in text


class TestLoadVectorReportConsistency:
    def test_worst_case_at_least_mean(self):
        from repro.sim.analytic import simulate_distribution
        from repro.workload.adversarial import AdversarialDistribution

        params = SystemParameters(n=20, m=500, c=10, d=2, rate=1000.0)
        report = simulate_distribution(
            params, AdversarialDistribution(500, 100), trials=10, seed=1
        )
        assert report.worst_case >= report.mean
        assert report.trials == 10

    def test_selection_policy_recorded_in_metadata(self):
        from repro.sim.analytic import simulate_distribution
        from repro.workload.adversarial import AdversarialDistribution

        params = SystemParameters(n=20, m=500, c=10, d=2, rate=1000.0)
        report = simulate_distribution(
            params, AdversarialDistribution(500, 100), trials=3, seed=1,
            selection="round-robin",
        )
        assert report.metadata["selection"] == "round-robin"
