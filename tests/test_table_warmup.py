"""Ablation: cold-start warmup — the attack window after a restart.

The paper's perfect cache is always warm; a restarted real front end
serves nothing until its policy re-learns the head of the distribution,
and until then the cluster faces the raw workload.  This test measures,
per policy, the steady-state hit rate and the queries (and seconds at
the paper's offered rate) needed to reach 90% of it under Zipf(1.01).
"""

import pytest
from warmup import queries_to_warm

from repro.cache import (
    ARCCache,
    FIFOCache,
    FrequencyAdmissionCache,
    LFUCache,
    LRUCache,
    PerfectCache,
    TwoQCache,
)
from repro.experiments.report import ExperimentResult
from repro.workload.zipf import ZipfDistribution

M = 20_000
C = 500
N_QUERIES = 80_000
RATE = 100_000.0  # the paper's offered rate: converts queries -> seconds
SEED = 68


def _run():
    zipf = ZipfDistribution(M, 1.01)
    keys = zipf.sample(N_QUERIES, rng=SEED).tolist()
    policies = {
        "perfect": PerfectCache.from_distribution(zipf.probabilities(), C),
        "lfu": LFUCache(C),
        "arc": ARCCache(C),
        "2q": TwoQCache(C),
        "tinylfu-lru": FrequencyAdmissionCache(LRUCache(C)),
        "lru": LRUCache(C),
        "fifo": FIFOCache(C),
    }
    columns = {"policy": [], "steady_hit_rate": [], "queries_to_90pct": [], "seconds_at_100k_qps": []}
    for name, cache in policies.items():
        report = queries_to_warm(cache, keys, target_fraction=0.9, window=1000)
        columns["policy"].append(name)
        columns["steady_hit_rate"].append(round(report.steady_hit_rate, 3))
        columns["queries_to_90pct"].append(
            report.queries_to_warm if report.warmed else -1
        )
        columns["seconds_at_100k_qps"].append(
            round(report.seconds_at(RATE), 3) if report.warmed else -1.0
        )
    return ExperimentResult(
        name="warmup",
        description="cold-start warmup per cache policy under Zipf(1.01)",
        columns=columns,
        config={"m": M, "c": C, "queries": N_QUERIES, "rate": RATE},
        notes=["queries_to_90pct = -1 means the policy never reached 90% of steady state"],
    )


def _check(result) -> None:
    warm_queries = dict(
        zip(result.column("policy"), result.column("queries_to_90pct"))
    )
    # The perfect oracle is born warm: first window within its steady rate.
    assert 0 <= warm_queries["perfect"] <= 1000
    # Every real policy eventually warms under benign Zipf
    # (queries_to_90pct = -1 would mean it never did).
    for name, queries in warm_queries.items():
        assert queries >= 0, name
    # Frequency-aware policies reach at least LRU-level steady hit rates.
    steady = dict(zip(result.column("policy"), result.column("steady_hit_rate")))
    assert steady["lfu"] >= steady["lru"] - 0.02
    assert steady["perfect"] >= max(steady.values()) - 0.02


@pytest.mark.slow
def test_warmup():
    result = _run()
    print(result.render())
    _check(result)
