"""Ablation: request-level engine vs the paper's placement model.

The paper (and our Monte-Carlo engine) abstracts queueing away; this
test replays the same attack through the discrete-event engine — real
Poisson arrivals, per-node FIFO queues, finite capacity — and checks the
two engines agree on the normalized max load, and that the capacity
corollary (capacity > E[L_max] bound => no drops) holds in the queueing
world.

The replay runs through the event kernel (``repro.sim.kernel``); the
table reports its throughput in events per second.  The kernel's
bit-identity against the per-event reference scheduler is pinned by the
differential suites (``tests/test_kernel_differential.py``), not here.
"""

import time

import numpy as np
import pytest

from repro.core.notation import SystemParameters
from repro.experiments.report import ExperimentResult
from repro.sim.analytic import simulate_distribution
from repro.sim.eventsim import EventDrivenSimulator
from repro.workload.adversarial import AdversarialDistribution

SEED = 65

FULL = {
    "params": dict(n=50, m=5000, c=25, d=3, rate=10_000.0),
    "x_values": (26, 200, 2000),
    "n_queries": 60_000,
    "event_trials": 4,
    "analytic_trials": 20,
}


def _replay(spec: dict) -> dict:
    """Run the full x-sweep through the event engine; the mean columns."""
    params = SystemParameters(**spec["params"])
    columns = {"x": [], "eventsim_mean": [], "drop_rate": []}
    for x in spec["x_values"]:
        gains, drops = [], []
        for trial in range(spec["event_trials"]):
            sim = EventDrivenSimulator(
                params, AdversarialDistribution(params.m, x), seed=SEED
            )
            outcome = sim.run(spec["n_queries"], trial=trial)
            gains.append(outcome.normalized_max)
            drops.append(outcome.drop_rate)
        columns["x"].append(x)
        columns["eventsim_mean"].append(float(np.mean(gains)))
        columns["drop_rate"].append(float(np.mean(drops)))
    return columns


def _agreement(columns: dict) -> bool:
    ok = True
    for analytic, event in zip(columns["analytic_mean"], columns["eventsim_mean"]):
        ok = ok and abs(event - analytic) <= 0.3 * abs(analytic)
    # Capacity corollary: default capacity is 4 R / n; whenever the
    # analytic gain stays below 4, drops are negligible.
    for analytic, drop in zip(columns["analytic_mean"], columns["drop_rate"]):
        if analytic < 3.5:
            ok = ok and drop < 0.01
    return ok


def _run() -> dict:
    spec = FULL
    params = SystemParameters(**spec["params"])
    events = spec["n_queries"] * spec["event_trials"] * len(spec["x_values"])
    analytic_mean = [
        simulate_distribution(
            params, AdversarialDistribution(params.m, x),
            trials=spec["analytic_trials"], seed=SEED,
        ).mean
        for x in spec["x_values"]
    ]
    start = time.perf_counter()
    replay = _replay(spec)
    seconds = time.perf_counter() - start
    columns = {
        "x": replay["x"],
        "analytic_mean": analytic_mean,
        "eventsim_mean": replay["eventsim_mean"],
        "drop_rate": replay["drop_rate"],
    }
    return {
        "config": {**spec["params"], "queries": spec["n_queries"],
                   "event_trials": spec["event_trials"]},
        "columns": columns,
        "events_per_second": events / seconds,
        "engines_agree": _agreement(columns),
    }


def _render(payload: dict) -> str:
    table = ExperimentResult(
        name="eventsim-vs-analytic",
        description="normalized max load: placement model vs request-level queueing model",
        columns=payload["columns"],
        config=payload["config"],
    ).render()
    return (
        f"{table}\n\nevent engine: {payload['events_per_second']:,.0f} events/s"
    )


def _check(payload: dict) -> None:
    columns = payload["columns"]
    for analytic, event in zip(columns["analytic_mean"], columns["eventsim_mean"]):
        assert abs(event - analytic) <= 0.3 * abs(analytic), (analytic, event)
    assert payload["engines_agree"]


@pytest.mark.slow
def test_eventsim():
    payload = _run()
    print(_render(payload))
    _check(payload)
