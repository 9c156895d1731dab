"""Figure 3(a): normalized max workload vs x, small cache (c = 200).

Paper shape to reproduce: the curve *decreases* with the number of
queried keys, exceeds 1.0 (effective attack) near ``x = c + 1``, and the
Eq. (10) bound sits above the measurements.
"""

from repro.experiments import run_fig3a
from repro.perf.harness import register

TRIALS = 30  # paper: 200; shape is stable well before that
SEED = 31


def _run():
    return run_fig3a(trials=TRIALS, seed=SEED)


def _check(result) -> None:
    gains = result.column("sim_max")
    xs = result.column("x")
    assert xs[0] == 201
    assert gains[0] > 1.0, "attack near x = c + 1 must be effective"
    assert gains[0] > gains[-1], "curve must decrease in x"
    calibrated = result.column("bound_calib")
    assert all(g <= b + 1e-9 for g, b in zip(gains, calibrated)), (
        "calibrated Eq. (10) bound must cover the simulation"
    )


SPEC = register("fig3a", run=_run, check=_check, seed=SEED)


def bench_fig3a(benchmark):
    benchmark.pedantic(
        lambda: SPEC.execute(raise_on_check=True), rounds=1, iterations=1
    )


if __name__ == "__main__":
    raise SystemExit(SPEC.main())
