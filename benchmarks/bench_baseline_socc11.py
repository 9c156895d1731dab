"""Ablation: the unreplicated baseline's interior optimum, empirically.

The paper's contrast with Fan et al. (SoCC'11): without replication the
adversary's best flood width ``x*`` is an *interior* optimum (a
continuous function of c and n), and the attack is always effective.
This bench sweeps ``x`` on a ``d = 1`` cluster, locates the empirical
optimum, and checks it against :mod:`repro.core.baseline_socc11`'s
analytic ``x*`` — then confirms the same sweep on ``d = 3`` has *no*
interior optimum (the endpoints win), which is this paper's Theorem-1
case structure.
"""

import numpy as np

from repro.core import baseline_socc11
from repro.core.notation import SystemParameters
from repro.experiments.report import ExperimentResult
from repro.perf.harness import register
from repro.sim.analytic import simulate_uniform_attack

N = 200
M = 20_000
C = 60
RATE = 20_000.0
TRIALS = 12
SEED = 70


def _sweep(d):
    params = SystemParameters(n=N, m=M, c=C, d=d, rate=RATE)
    xs = np.unique(
        np.round(np.geomspace(C + 1, M, num=14)).astype(int)
    )
    gains = [
        simulate_uniform_attack(params, int(x), trials=TRIALS, seed=SEED).worst_case
        for x in xs
    ]
    return params, xs.tolist(), gains


def _run():
    params1, xs, gains_d1 = _sweep(d=1)
    _, _, gains_d3 = _sweep(d=3)
    analytic_xstar = baseline_socc11.optimal_query_count(params1)
    return ExperimentResult(
        name="baseline-socc11",
        description=(
            "gain vs flood width x: unreplicated (d=1, interior optimum) vs "
            "replicated (d=3, endpoint optimum)"
        ),
        columns={"x": xs, "gain_d1": gains_d1, "gain_d3": gains_d3},
        config={
            "n": N, "m": M, "c": C, "trials": TRIALS,
            "analytic_xstar_d1": analytic_xstar,
        },
    )


def _check(result) -> None:
    xs = result.column("x")
    d1 = result.column("gain_d1")
    d3 = result.column("gain_d3")
    analytic_xstar = result.config["analytic_xstar_d1"]

    # d=1: interior optimum — the peak is strictly inside the sweep...
    peak = int(np.argmax(d1))
    assert 0 < peak < len(xs) - 1, "d=1 optimum should be interior"
    # ...in the same region as the analytic x* (order of magnitude).
    assert xs[peak] / 10 <= analytic_xstar <= xs[peak] * 10
    # ...and always effective at its optimum.
    assert max(d1) > 1.0

    # d=3 with c < c*: the optimum hugs the small endpoint.  (The bound
    # is maximised exactly at x = c + 1; the max-of-trials statistic can
    # peak one grid step in, where the discrete max occupancy first
    # jumps from 1 to 2 — still nothing like d=1's mid-sweep optimum.)
    peak_d3 = int(np.argmax(d3))
    assert xs[peak_d3] <= 3 * (C + 1), "d=3 optimum must hug x ~ c + 1"
    # Past the small-x region the d=3 curve is decreasing toward ~1.
    assert d3[-1] < max(d3) / 2
    # Replication beats no-replication at every interior width.
    for g1, g3 in zip(d1[2:-1], d3[2:-1]):
        assert g3 <= g1 + 0.05


def _workload(result):
    # Two sweeps, TRIALS trials per x, each throwing ~x balls.
    return {"balls": 2 * TRIALS * sum(result.column("x"))}


SPEC = register(
    "baseline_socc11", run=_run, check=_check, workload=_workload, seed=SEED
)
