"""The greedy d-choice max load against its exact law (:mod:`exact_law`).

The differential suites prove the placement code equal to the loops it
replaced; this proves the model right.  Many independent trials of
:func:`~repro.ballsbins.allocation.sample_replica_groups` followed by
:func:`~repro.ballsbins.allocation.greedy_scan` must give a max load
whose histogram fits the exact law, by a chi-square test at
``ALPHA = 1e-6``.  Sizes, seeds and ``ALPHA`` were fixed before any
result was seen.  A planted bias, candidates that may repeat, must fail
the same test, which shows it has the power to catch one.  The slow test
runs the same check through the whole Monte-Carlo path,
:func:`~repro.sim.analytic.simulate_distribution` of an x-key flood.
"""

from itertools import product, repeat
from math import comb

import numpy as np
import pytest
from exact_law import PRUNE, chi_square_max_load, max_load_law, min_rank_law

from repro.ballsbins.allocation import greedy_scan, sample_replica_groups
from repro.core.notation import SystemParameters
from repro.sim.analytic import simulate_distribution
from repro.workload.adversarial import AdversarialDistribution

ALPHA = 1e-6
TRIALS = 20_000
SEED = 2013
CONFIGS = [(8, 2, 16), (8, 3, 16), (12, 3, 24), (16, 3, 32)]


def _max_loads(n, d, balls, trials, seed, distinct=True):
    """Per-trial max load of ``trials`` independent greedy runs.

    Every trial owns ``n`` slots of one loads list, so one scan places
    all ``trials * balls`` balls: trial ``t``'s candidates are offset by
    ``t * n``.
    """
    groups = sample_replica_groups(
        trials * balls, n, d, rng=np.random.default_rng(seed), distinct=distinct
    )
    groups += (np.arange(trials * balls) // balls * n)[:, None]
    loads = [0] * (trials * n)
    greedy_scan(loads, groups, repeat(1, trials * balls))
    return np.asarray(loads).reshape(trials, n).max(axis=1)


def _enumerated_law(n, d, balls, distinct):
    """The max-load law by enumerating every candidate sequence."""
    if distinct:
        rows = [r for r in product(range(n), repeat=d) if len(set(r)) == d]
    else:
        rows = list(product(range(n), repeat=d))
    law = {}
    for sequence in product(rows, repeat=balls):
        loads = [0] * n
        for row in sequence:
            best = min(row, key=loads.__getitem__)
            loads[best] += 1
        law[max(loads)] = law.get(max(loads), 0) + 1
    total = len(rows) ** balls
    return {k: v / total for k, v in sorted(law.items())}


class TestExactLaw:
    @pytest.mark.parametrize("distinct", [True, False])
    def test_min_rank_law_sums_to_one(self, distinct):
        for n, d in [(2, 1), (5, 2), (8, 3), (16, 5)]:
            law = min_rank_law(n, d, distinct)
            assert sum(law) == pytest.approx(1.0, abs=1e-12)
        assert min_rank_law(6, 2)[0] == comb(5, 1) / comb(6, 2)

    @pytest.mark.parametrize(
        "n, d, balls, distinct",
        [(4, 2, 4, True), (5, 3, 3, True), (4, 2, 3, False), (3, 2, 4, False)],
    )
    def test_dynamic_program_matches_enumeration(self, n, d, balls, distinct):
        law = max_load_law(n, d, balls, distinct)
        expected = _enumerated_law(n, d, balls, distinct)
        assert set(law) >= set(expected)
        for value, p in law.items():
            assert p == pytest.approx(expected.get(value, 0.0), abs=1e-12)

    @pytest.mark.parametrize("n, d, balls", [(8, 3, 16), (12, 3, 24)])
    def test_pruned_law_matches_unpruned(self, n, d, balls):
        exact = max_load_law(n, d, balls)
        pruned = max_load_law(n, d, balls, prune=PRUNE)
        assert set(pruned) <= set(exact)
        for value, p in exact.items():
            assert pruned.get(value, 0.0) == pytest.approx(p, abs=1e-12)


class TestGreedyScanFitsExactLaw:
    @pytest.mark.parametrize("n, d, balls", CONFIGS)
    def test_max_load(self, n, d, balls):
        observed = _max_loads(n, d, balls, TRIALS, SEED)
        _, p_value, dof = chi_square_max_load(observed, max_load_law(n, d, balls))
        assert dof >= 1
        assert p_value >= ALPHA

    @pytest.mark.parametrize("n, d, balls", CONFIGS)
    def test_repeated_candidates_fail(self, n, d, balls):
        # The planted bias: a sampler that lets a ball's candidates
        # repeat.  It fits its own law and fails the paper's.
        observed = _max_loads(n, d, balls, TRIALS, SEED, distinct=False)
        law = max_load_law(n, d, balls, distinct=False)
        assert chi_square_max_load(observed, law)[1] >= ALPHA
        _, p_value, _ = chi_square_max_load(observed, max_load_law(n, d, balls))
        assert p_value < ALPHA


@pytest.mark.slow
def test_distribution_attack_fits_exact_law():
    # n = 16, d = 3: a flood of x = 40 keys with c = 8 cached leaves 32
    # uncached keys of rate R/x each, so a trial's normalized max
    # L_max / (R/n) times x/n is its max ball count.
    n, d, c, x = 16, 3, 8, 40
    params = SystemParameters(n=n, m=64, c=c, d=d, rate=1000.0)
    report = simulate_distribution(
        params, AdversarialDistribution(params.m, x), trials=TRIALS, seed=SEED
    )
    balls = report.normalized_max_per_trial * x / n
    observed = np.rint(balls).astype(np.int64)
    assert np.abs(balls - observed).max() < 1e-9
    _, p_value, _ = chi_square_max_load(observed, max_load_law(n, d, x - c))
    assert p_value >= ALPHA
