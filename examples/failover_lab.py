#!/usr/bin/env python3
"""Failover lab: watch the cluster lose nodes, retry, and stay bounded.

Replays the paper's worst-case attack through the event-driven engine
while a fault injector crashes (and repairs) nodes live.  Three acts:

1. a healthy run for reference;
2. the same run under a synthesised crash/repair process — the front
   end fails over across replica groups with timeout + backoff, the
   monitor prints each window's effective ``d`` and the Theorem-2 bound
   *refreshed for the degraded cluster*, and the ``degraded-bound``
   alert fires the moment failures bite;
3. an incident replay: a hand-written schedule takes out an entire
   replica group's worth of nodes at once, demonstrating unavailability
   accounting and stale serving.

Run:  python examples/failover_lab.py        (~15 s)
"""

from repro import SystemParameters
from repro.chaos import ChaosConfig, FailureEvent, FailureSchedule, RetryPolicy
from repro.obs import LoadMonitor, MonitorConfig, RunContext
from repro.sim.eventsim import EventDrivenSimulator
from repro.workload.adversarial import AdversarialDistribution

SEED = 13
SYSTEM = SystemParameters(n=50, m=5000, c=25, d=3, rate=10_000.0)
X = 200
QUERIES = 30_000


def replay(label: str, chaos, verbose_windows: bool = False):
    """One seeded replay of the x=200 attack, optionally chaotic."""

    def on_window(w):
        if not verbose_windows:
            return
        eff = w.get("effective_d")
        degraded = w.get("degraded_bound")
        flags = ",".join(w["alerts"]) or "-"
        print(
            f"  t={w['t_end']:6.3f}s  gain={w['running_gain']:5.3f}  "
            f"d_eff={eff if eff is None else format(eff, '4.2f')}  "
            f"bound={w['bound']:5.3f}"
            + (f" -> {degraded:5.3f}" if degraded is not None else "        ")
            + f"  down={w.get('nodes_down', 0)}  alerts={flags}"
        )

    monitor = LoadMonitor(
        MonitorConfig.from_params(SYSTEM, x=X, window=0.1), on_window=on_window
    )
    sim = EventDrivenSimulator(
        SYSTEM, AdversarialDistribution(SYSTEM.m, X), seed=SEED,
        chaos=chaos, context=RunContext(monitor=monitor),
    )
    result = sim.run(QUERIES)
    print(f"{label}:")
    served = int(result.served.sum())
    print(
        f"  gain {result.normalized_max:.3f}, {served} served, "
        f"{result.unavailable} unavailable ({result.stale_hits} stale), "
        f"{result.retries} retries, {result.failure_events} failure events"
    )
    summary = monitor.summaries[-1]
    if "effective_d_min" in summary:
        print(
            f"  effective d bottomed at {summary['effective_d_min']:.2f} "
            f"(configured d={SYSTEM.d}); degraded bound peaked at "
            f"{summary['degraded_bound']:.3f} vs healthy {summary['bound']:.3f}"
        )
    fired = sorted({a["rule"] for a in monitor.alerts})
    print(f"  alerts fired: {', '.join(fired) or 'none'}")
    print()
    return result


def incident_schedule() -> FailureSchedule:
    """A scripted incident: a third of the cluster dies at t=1s,
    recovering in staggered waves half a second apart."""
    events = []
    doomed = range(0, SYSTEM.n, 3)
    for wave, node in enumerate(doomed):
        events.append(FailureEvent(time=1.0, node=node, kind="crash"))
        events.append(
            FailureEvent(time=1.5 + 0.5 * (wave % 3), node=node, kind="recover")
        )
    return FailureSchedule(tuple(events))


def main() -> None:
    print(f"FAILOVER LAB: x={X} attack vs {SYSTEM.describe()}\n")

    replay("ACT 1 — healthy cluster", chaos=None)

    process = ChaosConfig(
        failure_rate=0.3, mttr=0.5,
        retry=RetryPolicy(max_attempts=3, timeout=0.01, backoff=0.005),
    )
    print(f"ACT 2 — live crash/repair process ({process.describe()})")
    replay("result", process, verbose_windows=True)

    incident = ChaosConfig(schedule=incident_schedule(), serve_stale=True)
    print(
        f"ACT 3 — scripted incident: {incident.schedule.crash_count} nodes "
        "crash at t=1.0s, staggered recovery"
    )
    replay("result", incident)

    print(
        "replication absorbs the failure process: retries hide almost every\n"
        "crash, unavailability only appears when a key's whole replica group\n"
        "is down at once, and the refreshed bound tracks exactly how much\n"
        "protection the degraded cluster still provably provides."
    )


if __name__ == "__main__":
    main()
