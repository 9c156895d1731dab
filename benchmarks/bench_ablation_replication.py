"""Ablation: attack gain vs replication factor d (the paper's knob).

Sweeps d at fixed (n, c, x = m) and reports the measured worst-case gain
next to the analytic bounds — the d = 1 column is the SoCC'11 baseline
world, d >= 2 is this paper's.  Expected: a large drop from d = 1 to
d = 2 (sqrt excess -> log log excess) and mild further gains after.
"""

from repro.core import baseline_socc11
from repro.core.bounds import normalized_max_load_bound
from repro.core.notation import SystemParameters
from repro.experiments.report import ExperimentResult
from repro.perf.harness import register
from repro.sim.analytic import simulate_uniform_attack

TRIALS = 10
SEED = 63
D_VALUES = (1, 2, 3, 4, 5)


def _run():
    columns = {"d": [], "sim_gain": [], "bound": []}
    for d in D_VALUES:
        params = SystemParameters(n=200, m=20_000, c=200, d=d, rate=20_000.0)
        report = simulate_uniform_attack(params, params.m, trials=TRIALS, seed=SEED)
        if d == 1:
            bound = baseline_socc11.normalized_max_load_bound(params, params.m)
        else:
            bound = normalized_max_load_bound(params, params.m, k_prime=0.75)
        columns["d"].append(d)
        columns["sim_gain"].append(report.worst_case)
        columns["bound"].append(bound)
    return ExperimentResult(
        name="ablation-replication",
        description="worst-case gain vs replication factor (x = m sweep)",
        columns=columns,
        config={"n": 200, "m": 20_000, "c": 200, "trials": TRIALS},
    )


def _check(result) -> None:
    gains = dict(zip(result.column("d"), result.column("sim_gain")))
    bounds = dict(zip(result.column("d"), result.column("bound")))
    # The big cliff: two choices already capture most of the benefit.
    assert gains[2] < gains[1]
    assert gains[1] - gains[2] > 0.5 * (gains[1] - gains[5])
    # More replication never hurts (within MC noise).
    assert gains[5] <= gains[2] + 0.05
    # Each regime's bound covers its simulation (d=1 within the
    # concentration-estimate slack).
    assert gains[1] <= bounds[1] * 1.05
    for d in (2, 3, 4, 5):
        assert gains[d] <= bounds[d] + 1e-9


def _workload(result):
    return {"balls": len(D_VALUES) * TRIALS * result.config["m"]}


SPEC = register(
    "ablation_replication", run=_run, check=_check, workload=_workload, seed=SEED
)
