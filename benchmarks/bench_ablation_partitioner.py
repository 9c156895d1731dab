"""Ablation: partitioner realism — random table vs consistent hashing.

The theory assumes perfectly uniform random replica groups; deployed
systems use consistent-hash rings whose per-node key share fluctuates
with the virtual-node count.  This bench measures the extra imbalance a
ring introduces under benign uniform traffic and how more vnodes buy it
back.
"""

import numpy as np

from repro.cluster.cluster import Cluster
from repro.cluster.partitioner import ConsistentHashPartitioner, RandomTablePartitioner
from repro.experiments.report import ExperimentResult
from repro.perf.harness import register

N = 100
D = 3
M = 20_000
SEED = 66


def _gain(partitioner):
    cluster = Cluster(n=N, d=D, partitioner=partitioner)
    keys = np.arange(M)
    rates = np.full(M, 1.0 / M)
    loads = cluster.apply_rates((keys, rates), total_rate=1.0)
    return loads.normalized_max


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


def _workload(result):
    return {"balls": len(result.column("partitioner")) * M}


SPEC = register(
    "ablation_partitioner", run=_run, check=_check, workload=_workload, seed=SEED
)
