"""Extension experiment: stealth attacks blended into benign traffic.

The paper's adversary owns the entire offered rate ``R``.  A stealthier
(and more common) attacker controls only a *fraction* of it, the rest
being the benign Zipf workload the cache serves well.  Two questions the
sweep answers, at a fixed under-provisioned cache:

1. **damage**: how much attack share does it take to push the most
   loaded node past the even split?
2. **visibility**: at that share, does the traffic fingerprint
   (the batch oracle in ``detection_oracle``) already look anomalous?

The measured story (``test_ablations.py::test_stealth``) cuts both ways.  Damage is
~linear in the attack share — the flood needs a *majority* of the
offered rate before any node exceeds the even split, because the benign
Zipf it displaces was cache-absorbed anyway.  But visibility is worse
than one might hope: the blended aggregate's entropy stays firmly in
the benign band (the flood's extra mass on ~c keys reads as ordinary
skew), and only the ~pure flood trips the uniform-flood fingerprint.
Entropy monitoring does not buy early warning against a blended
Theorem-1 attack — which sharpens the paper's case that *provisioning*
(which removes the damage at every share) beats *detection*.
"""

from __future__ import annotations

from typing import Optional, Sequence

from detection_oracle import profile_keys
from repro.experiments.params import PAPER, PaperParams
from repro.experiments.report import ExperimentResult
from repro.sim.analytic import MonteCarloSimulator
from repro.workload.adversarial import AdversarialDistribution
from repro.workload.mixture import MixtureDistribution
from repro.workload.zipf import ZipfDistribution

__all__ = ["run_stealth_sweep", "DEFAULT_FRACTIONS"]

#: Attack shares swept by default.
DEFAULT_FRACTIONS = (0.0, 0.05, 0.1, 0.2, 0.4, 0.7, 1.0)


def run_stealth_sweep(
    paper: PaperParams = PAPER,
    fractions: Sequence[float] = DEFAULT_FRACTIONS,
    cache_size: Optional[int] = None,
    trials: Optional[int] = None,
    seed: Optional[int] = None,
    n: int = 200,
    m: int = 20_000,
    detect_queries: int = 40_000,
) -> ExperimentResult:
    """Sweep the adversary's share of the offered rate.

    Returns columns: ``attack_fraction``, ``gain`` (max over trials),
    ``entropy`` (normalized, of a sampled stream) and ``verdict`` (the
    detector's label for the aggregate traffic).
    """
    c = paper.c_fig4 if cache_size is None else cache_size
    trials = (paper.trials if trials is None else trials)
    params = paper.system(c=c, n=n)
    params = type(params)(n=n, m=m, c=c, d=paper.d, rate=paper.rate)
    benign = ZipfDistribution(m, paper.zipf_s)
    # client_id=1: the flood declares ground truth for attribution, so
    # traced replays of the blended mixture can score suspect rankings
    # against the true attacker keys.  Sampling is unaffected.
    flood = AdversarialDistribution(m, min(c + 1, m), client_id=1)
    sim = MonteCarloSimulator(params, trials=trials, seed=seed)
    columns = {"attack_fraction": [], "gain": [], "entropy": [], "verdict": []}
    for fraction in fractions:
        if fraction <= 0.0:
            mixture = benign
        elif fraction >= 1.0:
            mixture = flood
        else:
            mixture = MixtureDistribution(
                [(1.0 - fraction, benign), (fraction, flood)]
            )
        report = sim.distribution_attack(mixture)
        profile = profile_keys(
            mixture.sample(detect_queries, rng=0 if seed is None else seed), m=m
        )
        columns["attack_fraction"].append(float(fraction))
        columns["gain"].append(report.worst_case)
        columns["entropy"].append(round(profile.normalized_entropy, 4))
        columns["verdict"].append(profile.verdict)
    notes = []
    crossing = next(
        (f for f, g in zip(columns["attack_fraction"], columns["gain"]) if g > 1.0),
        None,
    )
    if crossing is None:
        notes.append("no attack share pushes the cluster past the even split")
    else:
        notes.append(f"smallest damaging attack share: {crossing:g}")
    return ExperimentResult(
        name="stealth",
        description=(
            "attack share of the offered rate vs damage (gain) and "
            "visibility (traffic fingerprint), Zipf base + x=c+1 flood"
        ),
        columns=columns,
        config={"n": n, "m": m, "c": c, "d": paper.d, "trials": trials,
                "flood_x": min(c + 1, m)},
        notes=notes,
    )
