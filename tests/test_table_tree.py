"""Attack gain: flat cache vs the DistCache hierarchy under shard floods.

The cache hierarchy's headline measurement.  A
:class:`ShardTargetingAdversary` who has learned the edge layer's hash
seed floods ``x`` keys that all land on ONE edge shard.  A flat cache of
the same per-shard capacity absorbs the flood as usual; a naive cascade
tree funnels every one of those hits through the targeted shard; the
two-choice tree re-spreads them across layers because the aggregate
layer hashes the same keys *independently*.

The test replays both floods — ``targeted`` (one edge shard) and
``spread`` (the same ``x`` keys chosen without the leaked seed) —
against three defenses: ``flat``, ``tree-cascade``,
``tree-two-choice``.  Per defense it records the normalized backend max
load (the paper's attack gain), the targeted shard's share of all cache
hits (the quantity the hierarchy is meant to cap), and the
:func:`repro.core.bounds.distcache_max_load_bound` overlay from the
monitor's per-layer summaries.  The check asserts:

* the degenerate 1x1 tree is bit-identical to the flat baseline (the
  differential contract, re-proven here at full scale);
* under the targeted flood, cascade funnels most hits through the
  targeted shard while two-choice halves its share, and the monitor's
  per-layer bound overlay flags the compromised edge layer;
* under a *spread* flood of the same width (the paper's Fig.-3 regime,
  where every flooded key is cache-resident and layer selection — not
  residency churn — decides who serves), every layer of the two-choice
  tree stays within its DistCache bound.
"""

import pytest

from repro.adversary.strategies import ShardTargetingAdversary
from repro.cache import make_cache
from repro.cache.tree import _build_tree
from repro.core.bounds import DEFAULT_CALIBRATED_K_PRIME
from repro.core.notation import SystemParameters
from repro.obs import LoadMonitor, MonitorConfig, RunContext
from repro.scenario.build import BuildContext
from repro.sim.eventsim import EventDrivenSimulator
from repro.workload.adversarial import AdversarialDistribution
from repro.workload.distributions import UniformDistribution

SEED = 83

FULL = {
    "params": dict(n=50, m=5000, c=40, d=3, rate=20_000.0),
    "edges": 2,
    "aggregates": 1,
    "n_queries": 40_000,
    "trials": 3,
}


def _tree_layers(spec: dict, selection: str):
    ctx = BuildContext(
        params=SystemParameters(**spec["params"]), seed=SEED
    )
    layers = [
        {"shards": spec["edges"], "cache": "lru"},
        {"shards": spec["aggregates"], "cache": "lru"},
    ]
    return _build_tree(ctx, layers=layers, selection=selection)


def _defenses(spec: dict):
    return (
        ("flat", lambda: make_cache("lru", spec["params"]["c"])),
        ("tree-cascade", lambda: _tree_layers(spec, "cascade")),
        ("tree-two-choice", lambda: _tree_layers(spec, "two-choice")),
    )


def _replay(spec: dict, name: str, cache_factory, distribution, x: int):
    """Run one defense against one workload; return its summary row."""
    params = SystemParameters(**spec["params"])
    config = MonitorConfig.from_params(
        params, x=x, k_prime=DEFAULT_CALIBRATED_K_PRIME
    )
    gains, hit_rates, target_shares, layer_rows = [], [], [], []
    for trial in range(spec["trials"]):
        monitor = LoadMonitor(config)
        cache = cache_factory()
        sim = EventDrivenSimulator(
            params, distribution, seed=SEED, cache=cache,
            context=RunContext(monitor=monitor),
        )
        outcome = sim.run(spec["n_queries"], trial=trial)
        gains.append(outcome.normalized_max)
        hit_rates.append(outcome.cache_hit_rate)
        rows = monitor.summaries[-1].get("layers", ())
        layer_rows.extend(rows)
        if rows:
            # The targeted shard's share of ALL cache hits: the flood
            # keys occupy exactly one edge shard, so that shard's load
            # is layer 0's shard_max; the hierarchy's defense is to
            # serve the rest of the hits from other layers.
            total_hits = sum(row["hits"] for row in rows)
            target_shares.append(
                rows[0]["shard_max"] / total_hits if total_hits else 0.0
            )
    return {
        "defense": name,
        "gain_mean": sum(gains) / len(gains),
        "gain_worst": max(gains),
        "hit_rate": sum(hit_rates) / len(hit_rates),
        "target_share_worst": max(target_shares) if target_shares else None,
        "within_bound": all(row["within_bound"] for row in layer_rows)
        if layer_rows
        else None,
    }


def _degeneracy_identical(spec: dict) -> bool:
    """Full-scale re-proof of the 1x1-tree == flat differential."""
    params = SystemParameters(**spec["params"])
    ctx = BuildContext(params=params, seed=SEED)
    outcomes = []
    for build in (
        lambda: make_cache("lru", params.c),
        lambda: _build_tree(
            ctx, layers=[{"shards": 1, "cache": "lru"}], selection="cascade"
        ),
    ):
        sim = EventDrivenSimulator(
            params, UniformDistribution(params.m), seed=SEED, cache=build()
        )
        outcome = sim.run(spec["n_queries"], trial=0)
        outcomes.append((
            outcome.normalized_max, outcome.drop_rate,
            outcome.cache_hit_rate,
            outcome.latency_mean, outcome.latency_p99,
            outcome.served.tolist(), outcome.dropped.tolist(),
        ))
    return outcomes[0] == outcomes[1]


def _run() -> dict:
    spec = FULL
    params = SystemParameters(**spec["params"])
    adversary = ShardTargetingAdversary(
        params, x=params.c + 1, shards=spec["edges"], target=0, seed=SEED
    )
    targeted = adversary.distribution()
    spread = AdversarialDistribution(params.m, adversary.x)
    attack_rows, spread_rows = [], []
    for name, factory in _defenses(spec):
        attack_rows.append(_replay(spec, name, factory, targeted, adversary.x))
        spread_rows.append(_replay(spec, name, factory, spread, adversary.x))
    return {
        "config": {**spec["params"], "edges": spec["edges"],
                   "aggregates": spec["aggregates"],
                   "queries": spec["n_queries"], "trials": spec["trials"],
                   "x": adversary.x},
        "targeted": attack_rows,
        "spread": spread_rows,
        "degeneracy_identical": _degeneracy_identical(spec),
    }


def _render(payload: dict) -> str:
    config = payload["config"]
    lines = [
        f"shard flood x={config['x']} on edge shard 0/{config['edges']} "
        f"(n={config['n']}, m={config['m']}, c={config['c']})",
        "",
        f"{'defense':>16}  {'gain(targeted)':>14}  {'gain(spread)':>12}  "
        f"{'target share':>12}  {'in bound':>8}",
    ]
    for attack, spread in zip(payload["targeted"], payload["spread"]):
        share = attack["target_share_worst"]
        bound = spread["within_bound"]
        lines.append(
            f"{attack['defense']:>16}  {attack['gain_worst']:>14.3f}  "
            f"{spread['gain_worst']:>12.3f}  "
            f"{'-' if share is None else format(share, '.3f'):>12}  "
            f"{'-' if bound is None else str(bound):>8}"
        )
    lines.append(
        f"degenerate 1x1 tree identical to flat: "
        f"{payload['degeneracy_identical']}"
    )
    return "\n".join(lines)


def _check(payload: dict) -> None:
    assert payload["degeneracy_identical"]
    by_name = {row["defense"]: row for row in payload["targeted"]}
    cascade = by_name["tree-cascade"]
    two_choice = by_name["tree-two-choice"]
    # Cascade funnels the flood through the targeted shard; two-choice
    # re-spreads it across the layers' independent hashes.
    assert cascade["target_share_worst"] >= 0.75, cascade
    assert (
        two_choice["target_share_worst"]
        <= cascade["target_share_worst"] - 0.15
    ), (cascade, two_choice)
    # The per-layer overlay flags the compromised layer under attack...
    for row in (cascade, two_choice):
        assert row["within_bound"] is False, row
    # ...and holds on the spread flood, where layer assignments really
    # are independent hashes (the regime the bound is stated for).
    spread_two_choice = {
        row["defense"]: row for row in payload["spread"]
    }["tree-two-choice"]
    assert spread_two_choice["within_bound"] is True, spread_two_choice


@pytest.mark.slow
def test_tree():
    payload = _run()
    print(_render(payload))
    _check(payload)
