"""Extension: stealth attack shares — damage vs visibility.

Sweeps the fraction of offered traffic the adversary controls (the rest
is benign Zipf) against an under-provisioned cache.  Asserted findings:

- damage is ~linear in the share: gain ≈ share × n/(c+1), so crossing
  the even split needs a majority share;
- visibility is poor: blended shares keep a benign-looking entropy
  fingerprint; only the ~pure flood is flagged — detection does not
  substitute for provisioning.
"""

from repro.experiments.stealth import run_stealth_sweep
from repro.perf.harness import register

TRIALS = 10
SEED = 71


def _run():
    return run_stealth_sweep(trials=TRIALS, seed=SEED)


def _check(result) -> None:
    fractions = result.column("attack_fraction")
    gains = result.column("gain")
    verdicts = result.column("verdict")
    n = result.config["n"]
    flood_x = result.config["flood_x"]

    # Pure flood reproduces the Case-1 gain n/(c+1).
    assert gains[-1] == max(gains)
    assert abs(gains[-1] - n / flood_x) / (n / flood_x) < 0.1
    # Damage ~ linear: half share yields well under the full-gain damage.
    idx_small = fractions.index(0.2)
    assert gains[idx_small] < 0.6 * gains[-1]
    # Visibility: every blended share reads benign; the pure flood is
    # flagged.
    for fraction, verdict in zip(fractions, verdicts):
        if 0.0 < fraction <= 0.7:
            assert verdict == "skewed-benign", (fraction, verdict)
    assert verdicts[-1] == "uniform-flood"


SPEC = register("stealth", run=_run, check=_check, seed=SEED)
