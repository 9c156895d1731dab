"""Public-API surface tests: exports resolve, docstrings' examples run."""

import doctest
import importlib

import pytest

import repro

SUBPACKAGES = [
    "repro.core",
    "repro.ballsbins",
    "repro.cluster",
    "repro.cache",
    "repro.workload",
    "repro.adversary",
    "repro.sim",
    "repro.analysis",
    "repro.experiments",
]

#: Modules whose docstrings carry runnable examples.
DOCTEST_MODULES = [
    "repro.rng",
    "repro.core.notation",
    "repro.core.provisioning",
    "repro.cluster.selection",
    "repro.cache",
    "repro.workload.zipf",
    "repro.workload.costs",
]


class TestExports:
    def test_top_level_all_resolves(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_subpackage_all_resolves(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__all__, f"{module_name} exports nothing"
        for name in module.__all__:
            assert hasattr(module, name), f"{module_name}.{name}"

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_quickstart_from_readme(self):
        """The README quickstart snippet must keep working verbatim."""
        from repro import SystemParameters, plan_best_attack, recommend

        system = SystemParameters(n=1000, m=100_000, c=200, d=3, rate=1e5)
        plan = plan_best_attack(system, k_prime=0.75)
        assert plan.effective
        report = recommend(system, k_prime=0.75)
        assert report.required_cache == 2511

    def test_exception_hierarchy(self):
        from repro import ReproError
        from repro.exceptions import (
            AnalysisError,
            CacheError,
            ConfigurationError,
            DistributionError,
            PartitionError,
            SimulationError,
        )

        for exc in (
            AnalysisError,
            CacheError,
            ConfigurationError,
            DistributionError,
            PartitionError,
            SimulationError,
        ):
            assert issubclass(exc, ReproError)


@pytest.mark.parametrize("module_name", DOCTEST_MODULES)
def test_doctests(module_name):
    """Every example embedded in a docstring must execute and pass."""
    module = importlib.import_module(module_name)
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{results.failed} doctest failure(s) in {module_name}"
    assert results.attempted > 0, f"no doctests found in {module_name}"
