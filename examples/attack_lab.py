#!/usr/bin/env python3
"""Attack lab: every strategy in the arsenal vs the same cluster.

Pits the implemented adversaries — point floods of various widths, the
paper's bound-optimal plan, an adaptive prober that learns the best
flood width from feedback alone, and benign traffic for scale — against
one system, under- and properly-provisioned.

The finale replays the paper-optimal attack through the event-driven
engine with the online monitor attached, printing live gain-vs-bound
lines as each simulated-time window closes — what a deployed detector
would see mid-attack.

The last act turns the flight recorder on: a shard-flood blended into
benign Zipf traffic is traced at 25% sampling and the attribution
engine's ranked suspects are scored against the adversary's ground
truth (precision/recall of the flagged prefix buckets, whether the top
suspect client is the attacker).

Run:  python examples/attack_lab.py        (~25 s)
"""

from repro import SystemParameters, simulate_distribution
from repro.adversary import OptimalAdversary
from repro.experiments.report import render_table
from repro.obs import LoadMonitor, MonitorConfig, RunContext
from repro.scenario import (
    BuildContext,
    ComponentSpec,
    ScenarioSpec,
    build_component,
    run_scenario,
)
from repro.sim.eventsim import EventDrivenSimulator

TRIALS = 15
SEED = 13
K_PRIME = 0.75


def gains_against(system: SystemParameters) -> dict:
    """Worst-case gain of each strategy against ``system``.

    Every strategy is a declarative adversary spec resolved through the
    component registry — the same documents a campaign YAML would hold.
    """

    def measure(adversary: dict) -> float:
        spec = ScenarioSpec.from_dict({
            "scenario": 1,
            "name": f"attack-lab/{adversary['kind']}",
            "system": {
                "n": system.n, "m": system.m, "c": system.c,
                "d": system.d, "rate": system.rate,
            },
            "adversary": adversary,
            "trials": TRIALS,
            "seed": SEED,
        })
        return run_scenario(spec).stats["worst_case"]

    strategies = {
        "flood x=c+1": {"kind": "subset-flood", "x": min(system.c + 1, system.m)},
        "flood x=2c": {"kind": "subset-flood", "x": min(2 * system.c, system.m)},
        "flood x=10c": {"kind": "subset-flood", "x": min(10 * system.c, system.m)},
        "uniform (x=m)": {"kind": "uniform"},
        "optimal (paper)": {"kind": "adversarial", "k_prime": K_PRIME},
        "zipf client (benign)": {"kind": "zipf"},
    }
    results = {name: measure(spec) for name, spec in strategies.items()}

    # The adaptive prober gets a simulator as its oracle — black-box
    # feedback, no knowledge of k.  Built through the registry so the
    # probing loop is wired exactly as `adversary: {kind: adaptive}`
    # in a spec file would be.
    prober = build_component(
        "adversary",
        ComponentSpec.from_data({"kind": "adaptive", "probes": 7}, "adversary"),
        BuildContext(params=system, seed=SEED),
    )
    prober.probe()
    found_x = prober.distribution().x
    results[f"adaptive probe (found x={found_x})"] = simulate_distribution(
        system, prober.distribution(), trials=TRIALS, seed=SEED
    ).worst_case
    return results


def live_monitor_demo(system: SystemParameters) -> None:
    """Replay the optimal attack with the online monitor watching.

    Each closed window prints the running attack gain next to the
    Theorem-2 bound for the adversary's ``x`` — the live view of the
    quantity the tables above report post-hoc — plus any alert the
    rule engine fires (the flat-entropy Theorem-1 fingerprint shows
    up immediately).
    """
    adversary = OptimalAdversary(system, k_prime=K_PRIME)

    def on_window(w):
        gain = w["running_gain"]
        bound = w["bound"]
        flags = ",".join(w["alerts"]) or "-"
        print(
            f"  t={w['t_end']:6.3f}s  req={w['requests']:>5}  "
            f"gain={gain:5.3f} vs bound={bound:5.3f}  "
            f"entropy={w['normalized_entropy']:.4f}  alerts={flags}"
        )

    monitor = LoadMonitor(
        MonitorConfig.from_params(
            system, x=adversary.x, window=0.05, k_prime=K_PRIME
        ),
        on_window=on_window,
    )
    print(
        f"LIVE MONITOR: optimal attack (x={adversary.x}) vs {system.describe()}"
    )
    sim = EventDrivenSimulator(
        system, adversary.distribution(), seed=SEED,
        context=RunContext(monitor=monitor),
    )
    sim.run(25_000)
    summary = monitor.summaries[-1]
    print(
        f"  final gain {summary['final_gain']:.3f} "
        f"(bound {summary['bound']:.3f}), "
        f"{summary['alerts']} alerts over {summary['windows']} windows"
    )


def attribution_forensics_demo(system: SystemParameters) -> None:
    """Trace a blended shard-flood and score the attribution engine.

    The flood declares ground truth (``client_id=1`` on its key set),
    so every traced record carries the true culprit.  Precision is the
    attacker's share of traced requests inside the flagged prefix
    buckets (suspects above the uniform 1/buckets share); recall is the
    share of traced attacker requests those buckets capture.
    """
    flood = build_component(
        "adversary",
        ComponentSpec.from_data({"kind": "shard-flood"}, "adversary"),
        BuildContext(params=system, seed=SEED),
    )
    spec = ScenarioSpec.from_dict({
        "scenario": 1,
        "name": "attack-lab/forensics",
        "system": {
            "n": system.n, "m": system.m, "c": system.c,
            "d": system.d, "rate": system.rate,
        },
        "workload": {
            "kind": "mixture",
            "components": [
                {"weight": 0.6, "kind": "zipf"},
                {
                    "weight": 0.4,
                    "kind": "key-set",
                    "keys": [int(k) for k in flood.keys],
                    "client_id": 1,
                },
            ],
        },
        "engine": "event-driven",
        "trace": {
            "kind": "hash", "sample": 0.25,
            "concentration_threshold": 0.7,
        },
        "trials": 2,
        "queries": 15_000,
        "seed": SEED,
    })
    recorder = run_scenario(spec).trace
    suspects = recorder.suspects()
    buckets = recorder.config.prefix_buckets
    truth = {int(key) * buckets // system.m for key in flood.keys}
    flagged = {
        row["prefix"]
        for row in suspects["prefixes"]
        if row["share"] > 1.0 / buckets
    }
    in_flagged = attack_in_flagged = attack_total = 0
    for record in recorder.records:
        is_attack = record["client"] == 1
        attack_total += is_attack
        if record["prefix"] in flagged:
            in_flagged += 1
            attack_in_flagged += is_attack
    precision = attack_in_flagged / in_flagged if in_flagged else float("nan")
    recall = attack_in_flagged / attack_total if attack_total else float("nan")
    top_prefix = suspects["prefixes"][0]
    top_client = suspects["clients"][0]
    print(
        f"FORENSICS: shard-flood (x={flood.x}, shard {flood.target}) at 40% "
        f"of a Zipf base, {recorder.sampled}/{recorder.seen} requests traced"
    )
    print(
        f"  top suspect prefix {top_prefix['prefix']} "
        f"(share {top_prefix['share']:.2f}, backend share "
        f"{(top_prefix['backend_share'] or 0.0):.2f}) — "
        f"{'in' if top_prefix['prefix'] in truth else 'NOT in'} the "
        f"ground-truth attack buckets {sorted(truth)}"
    )
    print(
        f"  top suspect client: {top_client['client']} (1 = the attacker), "
        f"share {top_client['share']:.2f}"
    )
    print(
        f"  flagged prefixes {sorted(flagged)}: precision {precision:.2f}, "
        f"recall {recall:.2f} over {len(recorder.records)} traced requests"
    )
    print(f"  attribution-concentration alerts: {len(recorder.alerts)}")


def main() -> None:
    base = SystemParameters(n=200, m=50_000, c=60, d=3, rate=50_000.0)
    for label, system in (
        ("UNDER-PROVISIONED", base),
        ("PROVISIONED PER THE PAPER", base.with_cache(700)),
    ):
        results = gains_against(system)
        columns = {
            "strategy": list(results.keys()),
            "worst_gain": [round(g, 3) for g in results.values()],
            "effective": [g > 1.0 for g in results.values()],
        }
        print(render_table(columns, title=f"{label}: {system.describe()}"))
        print()
    print(
        "with the small cache the narrow floods win big (gain ~ n / (c+1));\n"
        "with the provisioned cache no strategy — not even the adaptive\n"
        "prober with oracle feedback — pushes any node past the even split."
    )
    print()
    live_monitor_demo(base)
    print()
    attribution_forensics_demo(base)


if __name__ == "__main__":
    main()
