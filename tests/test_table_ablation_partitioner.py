"""Ablation: partitioner realism — random table vs consistent hashing.

The theory assumes perfectly uniform random replica groups; deployed
systems use consistent-hash rings whose per-node key share fluctuates
with the virtual-node count.  This test measures the extra imbalance a
ring introduces under benign uniform traffic and how more vnodes buy it
back.
"""

import numpy as np
import pytest

from repro.cluster.partitioner import ConsistentHashPartitioner, RandomTablePartitioner
from repro.cluster.selection import LeastLoadedKeyPinning
from repro.experiments.report import ExperimentResult
from repro.types import LoadVector

N = 100
D = 3
M = 20_000
SEED = 66


def _gain(partitioner):
    groups = partitioner.replica_groups(np.arange(M))
    rates = np.full(M, 1.0 / M)
    loads = LeastLoadedKeyPinning().node_loads(groups, rates, N)
    return LoadVector(loads=loads, total_rate=1.0).normalized_max


def _run():
    columns = {"partitioner": [], "normalized_max": []}
    cases = [
        ("random-table", RandomTablePartitioner(N, D, M, seed=SEED)),
        ("ring-8-vnodes", ConsistentHashPartitioner(N, D, vnodes=8, secret=b"bench")),
        ("ring-64-vnodes", ConsistentHashPartitioner(N, D, vnodes=64, secret=b"bench")),
        ("ring-256-vnodes", ConsistentHashPartitioner(N, D, vnodes=256, secret=b"bench")),
    ]
    for name, part in cases:
        columns["partitioner"].append(name)
        columns["normalized_max"].append(_gain(part))
    return ExperimentResult(
        name="ablation-partitioner",
        description="load imbalance under uniform traffic: random table vs consistent-hash ring",
        columns=columns,
        config={"n": N, "d": D, "m": M},
    )


def _check(result) -> None:
    gain = dict(zip(result.column("partitioner"), result.column("normalized_max")))
    # More vnodes -> closer to the random-table ideal.
    assert gain["ring-256-vnodes"] <= gain["ring-8-vnodes"]
    # With enough vnodes the ring is within 30% of the ideal.
    assert gain["ring-256-vnodes"] <= gain["random-table"] * 1.3


@pytest.mark.slow
def test_ablation_partitioner():
    result = _run()
    print(result.render())
    _check(result)
