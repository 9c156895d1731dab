"""Figure 3(b): normalized max workload vs x, large cache (c = 2000).

Paper shape to reproduce: the curve *increases* with the number of
queried keys but stays at/below ~1.0 — with a provisioned cache the
adversary's best play (query everything) is no better than benign
uniform traffic.
"""

from repro.experiments import run_fig3b
from repro.perf.harness import register

TRIALS = 30
SEED = 32


def _run():
    return run_fig3b(trials=TRIALS, seed=SEED)


def _check(result) -> None:
    gains = result.column("sim_max")
    assert gains[-1] >= gains[0], "curve must increase in x"
    assert max(gains) <= 1.1, "no strongly effective attack with c = 2000"
    calibrated = result.column("bound_calib")
    assert all(g <= b + 1e-9 for g, b in zip(gains, calibrated))


SPEC = register("fig3b", run=_run, check=_check, seed=SEED)


def bench_fig3b(benchmark):
    benchmark.pedantic(
        lambda: SPEC.execute(raise_on_check=True), rounds=1, iterations=1
    )


if __name__ == "__main__":
    raise SystemExit(SPEC.main())
