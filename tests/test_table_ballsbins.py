"""Ablation: exact allocation processes vs the published max-load bounds.

Calibrates the paper's folded constant ``k`` from first principles: for
each load level, the measured d-choice max occupancy minus the mean is
the ``log log n / log d + k'`` gap the cache-size theorem rests on —
and, unlike the one-choice gap, it must not grow with the load.
"""

import pytest

from repro.ballsbins import d_choice_allocate, one_choice_allocate
from repro.core.bounds import balls_in_bins_key_bound
from repro.experiments.report import ExperimentResult

BINS = 500
SEED = 64
LOADS = (5_000, 20_000, 80_000)
TRIALS = 8


def _gap(allocate, balls):
    worst = 0.0
    for t in range(TRIALS):
        occ = allocate(balls, t)
        worst = max(worst, float(occ.max()) - balls / BINS)
    return worst


def _run():
    columns = {"balls": [], "gap_1choice": [], "gap_3choice": [], "bound_3choice_gap": []}
    for balls in LOADS:
        columns["balls"].append(balls)
        columns["gap_1choice"].append(
            _gap(lambda b, t: one_choice_allocate(b, BINS, rng=SEED + t), balls)
        )
        columns["gap_3choice"].append(
            _gap(lambda b, t: d_choice_allocate(b, BINS, 3, rng=SEED + t), balls)
        )
        columns["bound_3choice_gap"].append(
            balls_in_bins_key_bound(balls, BINS, 3, k_prime=0.75) - balls / BINS
        )
    return ExperimentResult(
        name="ballsbins",
        description="max-occupancy gap above the mean: one choice grows, three choices stay O(1)",
        columns=columns,
        config={"bins": BINS, "trials": TRIALS},
    )


def _check(result) -> None:
    one = result.column("gap_1choice")
    three = result.column("gap_3choice")
    bound = result.column("bound_3choice_gap")
    # One-choice gap grows with load (~sqrt), three-choice stays flat.
    assert one[-1] > 2 * one[0]
    assert three[-1] <= three[0] + 1.0
    # The calibrated d-choice bound covers every measurement.
    assert all(g <= b for g, b in zip(three, bound))
    # And the d-choice gap is dramatically smaller at heavy load.
    assert three[-1] < one[-1] / 5


@pytest.mark.slow
def test_ballsbins():
    result = _run()
    print(result.render())
    _check(result)
