"""Ablation: replica-selection policy vs attack gain.

The theory models per-key least-loaded-of-d selection.  How much do the
deployable alternatives (per-query round-robin, random pinning, primary
pinning) give away under the full-sweep attack?

Expected ordering (heavy-load regime): least-loaded best, round-robin
close behind, random/primary pinning clearly worse (they degenerate to
one-choice placement).
"""

from repro.core.notation import SystemParameters
from repro.experiments.report import ExperimentResult
from repro.perf.harness import register
from repro.sim.analytic import simulate_uniform_attack

TRIALS = 10
SEED = 61
POLICIES = ("least-loaded", "round-robin", "random-pin", "primary")


def _run():
    params = SystemParameters(n=200, m=20_000, c=200, d=3, rate=20_000.0)
    x = params.m
    columns = {"policy": [], "worst_gain": [], "mean_gain": []}
    for policy in POLICIES:
        report = simulate_uniform_attack(
            params, x, trials=TRIALS, seed=SEED, selection=policy
        )
        columns["policy"].append(policy)
        columns["worst_gain"].append(report.worst_case)
        columns["mean_gain"].append(report.mean)
    return ExperimentResult(
        name="ablation-selection",
        description="attack gain under each replica-selection policy (x = m sweep)",
        columns=columns,
        config={"n": params.n, "m": params.m, "c": params.c, "d": params.d, "trials": TRIALS},
    )


def _check(result) -> None:
    gain = dict(zip(result.column("policy"), result.column("worst_gain")))
    assert gain["least-loaded"] <= gain["round-robin"] + 0.02
    assert gain["round-robin"] < gain["random-pin"]
    # Random and primary pinning are the same process statistically.
    assert abs(gain["random-pin"] - gain["primary"]) < 0.5


def _workload(result):
    return {"balls": len(POLICIES) * TRIALS * result.config["m"]}


SPEC = register(
    "ablation_selection", run=_run, check=_check, workload=_workload, seed=SEED
)
