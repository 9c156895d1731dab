"""Figure 5(b): number of keys queried by the best adversary vs cache.

Paper shape to reproduce: a step function — ``x = c + 1`` below the
critical point, jumping to the entire key space ``m`` above it.
"""

from repro.experiments import PAPER, run_fig5b
from repro.perf.harness import register

TRIALS = 10
SEED = 52


def _run():
    return run_fig5b(trials=TRIALS, seed=SEED)


def _check(result) -> None:
    cs = result.column("c")
    xs = result.column("x_queried")
    # Every point is one of the two endpoints of the case analysis.
    assert all(x == c + 1 or x == PAPER.m for c, x in zip(cs, xs))
    # Both regimes are represented and the step is monotone (once the
    # adversary switches to the full sweep it never switches back).
    switched = [x == PAPER.m for x in xs]
    assert any(switched) and not all(switched)
    first_switch = switched.index(True)
    assert all(switched[first_switch:])


SPEC = register("fig5b", run=_run, check=_check, seed=SEED)


def bench_fig5b(benchmark):
    benchmark.pedantic(
        lambda: SPEC.execute(raise_on_check=True), rounds=1, iterations=1
    )


if __name__ == "__main__":
    raise SystemExit(SPEC.main())
