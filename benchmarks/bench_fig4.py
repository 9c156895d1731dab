"""Figure 4: normalized max workload vs cluster size, three patterns.

Paper shape to reproduce: Zipf(1.01) is the cheapest for the back end
(the cache eats the head), uniform hovers near 1 independent of n, and
the adversarial pattern grows ~linearly with n (as n / (c + 1)).
"""

from repro.experiments import run_fig4
from repro.perf.harness import register

TRIALS = 10
SEED = 41


def _run():
    return run_fig4(trials=TRIALS, seed=SEED)


def _check(result) -> None:
    uniform = result.column("uniform")
    zipf = result.column("zipf")
    adversarial = result.column("adversarial")
    n_values = result.column("n")

    # Zipf stays below uniform across the paper's n range.
    assert all(z <= u + 0.1 for z, u in zip(zipf, uniform))
    # Uniform stays near 1 while adversarial grows with n.
    assert all(0.8 < u < 1.6 for u in uniform)
    assert adversarial[-1] > 3 * adversarial[0]
    # Adversarial growth is ~ n / (c + 1).
    c = result.config["c"]
    expected = n_values[-1] / (c + 1)
    assert abs(adversarial[-1] - expected) / expected < 0.1


SPEC = register("fig4", run=_run, check=_check, seed=SEED)


def bench_fig4(benchmark):
    benchmark.pedantic(
        lambda: SPEC.execute(raise_on_check=True), rounds=1, iterations=1
    )


if __name__ == "__main__":
    raise SystemExit(SPEC.main())
