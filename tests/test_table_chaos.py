"""Fault-injection ablation: service quality vs failure intensity.

Sweeps the per-node crash rate through the event-driven engine under the
paper's worst-case attack and records what replication buys back:
retries absorb most crashes, unavailability stays a tail effect until
the failure process overwhelms ``d``, and the degraded Theorem-2 bound
(recomputed from the windowed effective ``d``) stays above the observed
gain throughout — the provable-protection story degrades gracefully
instead of breaking.
"""

import numpy as np
import pytest

from repro.chaos import ChaosConfig, RetryPolicy
from repro.core.notation import SystemParameters
from repro.experiments.report import ExperimentResult
from repro.obs import LoadMonitor, MonitorConfig, RunContext
from repro.perf.harness import timed
from repro.sim.eventsim import EventDrivenSimulator
from repro.workload.adversarial import AdversarialDistribution

SEED = 65

FULL = {
    "params": dict(n=50, m=5000, c=25, d=3, rate=10_000.0),
    "x": 200,
    "failure_rates": (0.0, 0.05, 0.2, 0.5, 1.0),
    "mttr": 0.5,
    "n_queries": 40_000,
    "trials": 3,
}


def _sweep():
    spec = FULL
    params = SystemParameters(**spec["params"])
    distribution = AdversarialDistribution(params.m, spec["x"])
    columns = {
        "failure_rate": [], "failure_events": [], "retries": [],
        "unavailable_rate": [], "effective_d_min": [], "degraded_bound_max": [],
        "gain_mean": [], "wall_seconds": [],
    }
    for failure_rate in spec["failure_rates"]:
        chaos = None
        if failure_rate > 0:
            chaos = ChaosConfig(
                failure_rate=failure_rate, mttr=spec["mttr"],
                retry=RetryPolicy(max_attempts=3, timeout=0.01, backoff=0.005),
            )
        monitor = LoadMonitor(
            MonitorConfig.from_params(params, x=spec["x"], window=0.05)
        )
        gains, events, retries, unavailable, backend = [], 0, 0, 0, 0
        start_seconds = 0.0
        for trial in range(spec["trials"]):
            sim = EventDrivenSimulator(
                params, distribution, seed=SEED, chaos=chaos,
                context=RunContext(monitor=monitor),
            )
            result, seconds = timed(sim.run, spec["n_queries"], trial=trial)
            start_seconds += seconds
            gains.append(result.normalized_max)
            events += result.failure_events
            retries += result.retries
            unavailable += result.unavailable
            backend += result.backend_queries
        eff = [w["effective_d"] for w in monitor.windows if "effective_d" in w]
        deg = [
            w["degraded_bound"] for w in monitor.windows
            if w.get("degraded_bound") is not None
        ]
        columns["failure_rate"].append(failure_rate)
        columns["failure_events"].append(events)
        columns["retries"].append(retries)
        columns["unavailable_rate"].append(unavailable / max(backend, 1))
        columns["effective_d_min"].append(min(eff) if eff else float(params.d))
        columns["degraded_bound_max"].append(max(deg) if deg else None)
        columns["gain_mean"].append(float(np.mean(gains)))
        columns["wall_seconds"].append(start_seconds)
    return ExperimentResult(
        name="chaos-sweep",
        description=(
            "service quality and degraded Theorem-2 bound vs per-node "
            "crash intensity (event-driven engine, worst-case attack)"
        ),
        columns=columns,
        config={
            **spec["params"], "x": spec["x"], "mttr": spec["mttr"],
            "queries": spec["n_queries"], "trials": spec["trials"],
        },
    )


def _shape_ok(columns: dict, config: dict) -> bool:
    """Qualitative shape: degradation is monotone and never silent."""
    rates = columns["failure_rate"]
    eff = columns["effective_d_min"]
    events = columns["failure_events"]
    ok = True
    for rate, e, ev in zip(rates, eff, events):
        if rate == 0:
            ok = ok and ev == 0 and e == config["d"]
        else:
            ok = ok and ev > 0
    # The heaviest failure process degrades effective d the most.
    ok = ok and eff[-1] == min(eff)
    return ok


def _run() -> dict:
    result = _sweep()
    return {
        "config": dict(result.config),
        "columns": {name: list(values) for name, values in result.columns.items()},
        "shape_ok": _shape_ok(result.columns, result.config),
    }


def _render(payload: dict) -> str:
    return ExperimentResult(
        name="chaos-sweep",
        description=(
            "service quality and degraded Theorem-2 bound vs per-node "
            "crash intensity (event-driven engine, worst-case attack)"
        ),
        columns=payload["columns"],
        config=payload["config"],
    ).render()


def _check(payload: dict) -> None:
    assert payload["shape_ok"]


@pytest.mark.slow
def test_chaos():
    payload = _run()
    print(_render(payload))
    _check(payload)
