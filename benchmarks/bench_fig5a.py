"""Figure 5(a): best achievable normalized max workload vs cache size.

Paper shape to reproduce: the best gain decreases with the cache size
and crosses 1.0 at a critical point that is Theta(n) and independent of
the number of stored items; the analytic bound lands near the crossing.
"""

from repro.core.cases import critical_cache_size
from repro.experiments import PAPER, run_fig5a
from repro.perf.harness import register

TRIALS = 10
SEED = 51


def _run():
    return run_fig5a(trials=TRIALS, seed=SEED)


def _check(result) -> None:
    cs = result.column("c")
    gains = result.column("best_gain")
    assert gains[0] > 1.0, "small caches must admit effective attacks"
    assert gains[-1] <= 1.05, "large caches must prevent them"
    # Weak monotonicity (Monte-Carlo wiggle tolerated).
    assert all(a >= b - 0.25 for a, b in zip(gains, gains[1:]))
    # The empirical crossing sits between the two analytic estimates
    # (paper's folded k = 1.2 and the substrate-calibrated k), up to the
    # sweep granularity.
    crossing = next(c for c, g in zip(cs, gains) if g <= 1.0)
    lo = critical_cache_size(PAPER.n, PAPER.d, k=PAPER.k)
    hi = critical_cache_size(PAPER.n, PAPER.d, k_prime=0.75)
    assert 0.5 * lo <= crossing <= 1.5 * hi


SPEC = register("fig5a", run=_run, check=_check, seed=SEED)


def bench_fig5a(benchmark):
    benchmark.pedantic(
        lambda: SPEC.execute(raise_on_check=True), rounds=1, iterations=1
    )


if __name__ == "__main__":
    raise SystemExit(SPEC.main())
