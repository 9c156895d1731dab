"""Ablation: real cache policies vs the perfect-cache assumption.

The analysis assumes the front end always holds the c most popular keys
(assumption 2).  This bench replays three traces through every
implemented policy and reports hit rates:

- ``zipf``: stationary benign skew — the workload the cache exists for;
- ``attack_iid``: the paper's adversarial pattern sampled i.i.d.
  (uniform over x > c keys).  Notable negative result: because the
  pattern is exchangeable, *every* policy converges to holding some c
  of the x keys and hits at ~c/x — the perfect-cache assumption costs
  the paper nothing against its own adversary;
- ``attack_scan``: the same x keys queried as a cyclic sweep.  Same
  marginal distribution, adversarially chosen *order*: every
  replacement-on-miss policy collapses to ~0 — including exact LFU,
  whose equal-frequency LRU tie-break evicts precisely the key the scan
  will request next.  Only frequency-based *admission* (TinyLFU)
  survives, by refusing to admit keys no more popular than the
  incumbent victim.  An adversary against a real deployment would send
  this — a sharpening of the paper's model that its theorems do not
  cover (they assume the perfect cache).
"""

import numpy as np

from repro.cache import (
    ARCCache,
    ClockCache,
    FIFOCache,
    FrequencyAdmissionCache,
    LFUAgingCache,
    LFUCache,
    LRUCache,
    PerfectCache,
    RandomEvictionCache,
    SieveCache,
    SLRUCache,
    TwoQCache,
)
from repro.experiments.report import ExperimentResult
from repro.perf.harness import register
from repro.workload.adversarial import AdversarialDistribution
from repro.workload.zipf import ZipfDistribution

M = 20_000
C = 500
X_ATTACK = 4 * C
N_QUERIES = 60_000
SEED = 62


def _policies():
    return {
        "perfect": lambda probs: PerfectCache.from_distribution(probs, C),
        "lfu": lambda probs: LFUCache(C),
        "lfu-aging": lambda probs: LFUAgingCache(C),
        "tinylfu-lru": lambda probs: FrequencyAdmissionCache(LRUCache(C)),
        "arc": lambda probs: ARCCache(C),
        "2q": lambda probs: TwoQCache(C),
        "slru": lambda probs: SLRUCache(C),
        "sieve": lambda probs: SieveCache(C),
        "lru": lambda probs: LRUCache(C),
        "clock": lambda probs: ClockCache(C),
        "fifo": lambda probs: FIFOCache(C),
        "random": lambda probs: RandomEvictionCache(C, rng=SEED),
    }


def _hit_rate(cache, keys):
    access = cache.access
    hits = 0
    for key in keys:
        hits += access(key)
    return hits / len(keys)


def _run():
    zipf = ZipfDistribution(M, 1.01)
    attack = AdversarialDistribution(M, x=X_ATTACK)
    zipf_keys = zipf.sample(N_QUERIES, rng=SEED).tolist()
    attack_iid_keys = attack.sample(N_QUERIES, rng=SEED + 1).tolist()
    attack_scan_keys = (np.arange(N_QUERIES) % X_ATTACK).tolist()

    columns = {"policy": [], "zipf": [], "attack_iid": [], "attack_scan": []}
    for name, factory in _policies().items():
        columns["policy"].append(name)
        columns["zipf"].append(_hit_rate(factory(zipf.probabilities()), zipf_keys))
        columns["attack_iid"].append(
            _hit_rate(factory(attack.probabilities()), attack_iid_keys)
        )
        columns["attack_scan"].append(
            _hit_rate(factory(attack.probabilities()), attack_scan_keys)
        )
    return ExperimentResult(
        name="ablation-cache",
        description="front-end hit rate per policy: benign Zipf, i.i.d. attack, cyclic-scan attack",
        columns=columns,
        config={"m": M, "c": C, "queries": N_QUERIES, "attack_x": X_ATTACK},
        notes=[
            "i.i.d. attack: order is exchangeable, every policy ~ c/x — the "
            "perfect-cache assumption is harmless against the paper's adversary",
            "cyclic-scan attack: same keys, adversarial order — every "
            "replace-on-miss policy (even exact LFU) collapses; only "
            "frequency-based admission (TinyLFU) retains ~c/x",
        ],
    )


def _check(result) -> None:
    rows = {
        policy: dict(zipf=z, iid=i, scan=s)
        for policy, z, i, s in zip(
            result.column("policy"),
            result.column("zipf"),
            result.column("attack_iid"),
            result.column("attack_scan"),
        )
    }
    steady = C / X_ATTACK  # 0.25: the perfect cache's hit rate

    # Benign Zipf: LFU tracks the perfect cache; every real policy beats
    # half the perfect hit rate.
    assert rows["lfu"]["zipf"] >= rows["perfect"]["zipf"] - 0.05
    assert all(r["zipf"] >= rows["perfect"]["zipf"] * 0.5 for r in rows.values())

    # i.i.d. attack: exchangeable order => everyone lands near c/x.
    for policy, r in rows.items():
        assert abs(r["iid"] - steady) < 0.1, (policy, r["iid"])

    # Cyclic scan: every replace-on-miss policy collapses (exact LFU
    # included — its equal-frequency tie-break churns with the scan);
    # only the perfect oracle and frequency-based admission hold ~c/x.
    for policy in ("lru", "fifo", "clock", "lfu", "lfu-aging", "arc", "2q", "slru", "sieve"):
        assert rows[policy]["scan"] < 0.05, policy
    for policy in ("perfect", "tinylfu-lru"):
        assert rows[policy]["scan"] > steady - 0.1, policy


def _workload(result):
    # Three traces replayed through every policy.
    return {"events": 3 * N_QUERIES * len(result.column("policy"))}


SPEC = register(
    "ablation_cache", run=_run, check=_check, workload=_workload, seed=SEED
)
