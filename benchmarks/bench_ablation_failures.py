"""Ablation: DDoS resilience while nodes are failing.

Replication serves two masters in the paper: load balancing (the
theorem) and fault tolerance (the motivation).  This bench runs the
full-sweep attack against clusters with a growing fraction of failed
nodes and reports (a) the availability loss and (b) the normalized max
load on the *survivors* — showing how the DDoS-prevention margin erodes
exactly when the cluster is already degraded.
"""

import numpy as np

from repro.ballsbins.allocation import sample_replica_groups
from repro.cluster.failures import (
    degrade_groups,
    expected_unavailable_fraction,
    sample_failures,
)
from repro.experiments.report import ExperimentResult
from repro.perf.harness import active_context, register
from repro.rng import RngFactory

N = 200
M = 20_000
C = 200
D = 3
RATE = 20_000.0
TRIALS = 8
SEED = 69
FRACTIONS = (0.0, 0.1, 0.2, 0.3, 0.5)


def _run():
    metrics = active_context().metrics
    x = M
    rates = np.full(x - C, RATE / x)
    factory = RngFactory(SEED)
    columns = {
        "failed_fraction": [],
        "unavailable": [],
        "unavailable_theory": [],
        "survivor_gain": [],
    }
    for fraction in FRACTIONS:
        worst_gain = 0.0
        unavailable = []
        for trial in range(TRIALS):
            gen = factory.generator("failures", trial=trial)
            groups = sample_replica_groups(x - C, N, D, rng=gen, metrics=metrics)
            failed = sample_failures(N, fraction, rng=gen)
            degraded = degrade_groups(groups, failed, n=N)
            loads = degraded.least_loaded_loads(rates, n=N)
            unavailable.append(degraded.unavailable_fraction)
            worst_gain = max(worst_gain, float(loads.max()) / (RATE / N))
        columns["failed_fraction"].append(fraction)
        columns["unavailable"].append(round(float(np.mean(unavailable)), 4))
        columns["unavailable_theory"].append(
            round(expected_unavailable_fraction(N, D, int(round(fraction * N))), 4)
        )
        columns["survivor_gain"].append(round(worst_gain, 3))
    return ExperimentResult(
        name="ablation-failures",
        description=(
            "full-sweep attack against a degraded cluster: availability and "
            "survivor load vs failed-node fraction"
        ),
        columns=columns,
        config={"n": N, "m": M, "c": C, "d": D, "trials": TRIALS},
    )


def _check(result) -> None:
    fractions = result.column("failed_fraction")
    unavailable = result.column("unavailable")
    theory = result.column("unavailable_theory")
    gains = result.column("survivor_gain")

    # Availability: measurement tracks the C(f,d)/C(n,d) closed form.
    for measured, expected in zip(unavailable, theory):
        assert abs(measured - expected) < 0.02
    # d = 3 keeps unavailability negligible through 20% failures.
    idx20 = fractions.index(0.2)
    assert unavailable[idx20] < 0.02
    # Survivor load grows monotonically with the failed fraction...
    assert all(a <= b + 0.05 for a, b in zip(gains, gains[1:]))
    # ...and at 50% failures the prevention margin is visibly consumed.
    assert gains[-1] > gains[0] * 1.5


def _workload(result):
    return {"balls": len(FRACTIONS) * TRIALS * (M - C)}


SPEC = register(
    "ablation_failures", run=_run, check=_check, workload=_workload, seed=SEED
)
