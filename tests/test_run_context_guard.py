"""Regrowth guard: instruments travel in one ``RunContext``, not as kwargs.

Outside ``repro.obs``, which defines the instruments, no function under
``src/repro`` may declare a ``metrics``, ``tracer``, ``spans``,
``monitor``, ``trace`` or ``profiler`` parameter: layers take one
``context=`` instead.  The only
exceptions are the leaf recorders listed below, which publish into a
registry they are handed and pass it nowhere.
"""

import ast
import inspect
from pathlib import Path

import repro
from repro.sim.analytic import MonteCarloSimulator

SRC = Path(repro.__file__).parent

INSTRUMENT_PARAMS = {"metrics", "tracer", "spans", "monitor", "trace", "profiler"}

#: Packages that own the instruments themselves.
EXEMPT_PACKAGES = ("obs",)

#: Leaf recorders: (module path under src/repro, function name).
LEAF_RECORDERS = {
    ("cache/admission.py", "publish_metrics"),
    ("cache/base.py", "publish_metrics"),
    ("cache/tree.py", "publish_metrics"),
}


def _functions():
    """(module path, function name, parameter names) for every def."""
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                names = [
                    a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
                ]
                yield module, node.name, names


def test_no_instrument_parameters_outside_obs():
    offenders = [
        f"{module}:{name}({', '.join(sorted(INSTRUMENT_PARAMS & set(params)))})"
        for module, name, params in _functions()
        if INSTRUMENT_PARAMS & set(params)
        and not module.startswith(tuple(p + "/" for p in EXEMPT_PACKAGES))
        and (module, name) not in LEAF_RECORDERS
    ]
    assert offenders == [], (
        "instrument parameters threaded outside repro.obs; take a "
        f"single context= (repro.obs.RunContext) instead: {offenders}"
    )


def test_leaf_recorder_allowlist_has_no_stale_entries():
    declaring = {
        (module, name)
        for module, name, params in _functions()
        if "metrics" in params
    }
    assert LEAF_RECORDERS <= declaring


def test_one_run_campaign_definition():
    definitions = [
        module for module, name, _ in _functions() if name == "run_campaign"
    ]
    assert definitions == ["scenario/campaign.py"]


def test_simulation_config_carries_no_sinks_or_workers():
    """The simulator's keywords are its configuration; instruments and the
    worker count ride in its ``context``."""
    params = set(inspect.signature(MonteCarloSimulator.__init__).parameters)
    assert not params & (INSTRUMENT_PARAMS | {"workers"})
    assert {"chaos", "context"} <= params


def test_one_trial_fan_out():
    definitions = [
        module for module, name, _ in _functions() if name == "map_trials"
    ]
    assert definitions == ["sim/parallel.py"]
    pools = [
        path.relative_to(SRC).as_posix()
        for path in sorted(SRC.rglob("*.py"))
        if "ProcessPoolExecutor" in path.read_text(encoding="utf-8")
    ]
    assert pools == ["sim/parallel.py"]
