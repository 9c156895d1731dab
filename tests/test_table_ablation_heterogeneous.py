"""Ablation: heterogeneous capacities — capacity-blind vs aware placement.

The paper assumes uniform node capacity; real clusters mix hardware
generations.  Under capacity-blind least-loaded placement every node
carries the same worst-case load, so the weakest machine caps the whole
cluster.  Capacity-aware (least-utilized) placement shifts keys toward
big nodes; this test measures peak *utilization* (load/capacity) under
both policies on a mixed cluster and checks the
:mod:`repro.core.heterogeneous` per-node bound covers the aware run.
"""

import numpy as np
import pytest

from repro.ballsbins.allocation import sample_replica_groups
from repro.cluster.selection import LeastLoadedKeyPinning, LeastUtilizedKeyPinning
from repro.core.heterogeneous import utilization_equalizing_bound
from repro.core.notation import SystemParameters
from repro.experiments.report import ExperimentResult
from repro.rng import RngFactory

N = 100
M = 20_000
C = 100
D = 3
RATE = 10_000.0
TRIALS = 10
SEED = 67


def _capacities():
    # Two hardware generations: 80 standard nodes, 20 at 3x capacity.
    capacities = np.full(N, 1.5 * RATE / N)
    capacities[:20] *= 3.0
    return capacities


def _run():
    params = SystemParameters(n=N, m=M, c=C, d=D, rate=RATE)
    capacities = _capacities()
    x = M  # the Case-2 full sweep
    rates = np.full(x - C, RATE / x)
    factory = RngFactory(SEED)

    blind_util, aware_util, blind_sat, aware_sat = [], [], [], []
    for trial in range(TRIALS):
        gen = factory.generator("hetero", trial=trial)
        groups = sample_replica_groups(x - C, N, D, rng=gen)
        blind = LeastLoadedKeyPinning().node_loads(groups, rates, N)
        aware = LeastUtilizedKeyPinning(capacities).node_loads(groups, rates, N)
        blind_util.append(float((blind / capacities).max()))
        aware_util.append(float((aware / capacities).max()))
        blind_sat.append(int((blind > capacities).sum()))
        aware_sat.append(int((aware > capacities).sum()))

    bound = utilization_equalizing_bound(params, capacities, k_prime=0.75)
    columns = {
        "policy": ["capacity-blind", "capacity-aware"],
        "peak_utilization": [
            round(float(np.max(blind_util)), 3),
            round(float(np.max(aware_util)), 3),
        ],
        "saturated_nodes_worst": [max(blind_sat), max(aware_sat)],
    }
    return ExperimentResult(
        name="ablation-heterogeneous",
        description=(
            "mixed-capacity cluster (20% nodes at 3x) under the full-sweep "
            "attack: peak node utilization by placement policy"
        ),
        columns=columns,
        config={"n": N, "m": M, "c": C, "d": D, "trials": TRIALS,
                "standard_capacity": round(1.5 * RATE / N, 1),
                "bound_utilization_max": round(float((bound / capacities).max()), 4)},
    )


def _check(result) -> None:
    blind, aware = result.column("peak_utilization")
    # Capacity-aware placement strictly reduces the peak utilization on
    # a mixed cluster.
    assert aware < blind
    # And keeps the standard nodes from saturating where blind placement
    # pushes them over.
    blind_sat, aware_sat = result.column("saturated_nodes_worst")
    assert aware_sat <= blind_sat
    # The per-node heterogeneous bound covers the aware policy's loads
    # (utilization form: bound_i / capacity_i >= measured peak).
    assert aware <= result.config["bound_utilization_max"] + 0.05


@pytest.mark.slow
def test_ablation_heterogeneous():
    result = _run()
    print(result.render())
    _check(result)
