"""Batch traffic fingerprint: is this a DDoS or a crowd?

This test oracle is the batch reference that the monitor's per-window
flatness score (the ``normalized_entropy`` of each window record) and
its threshold (``repro.obs.monitor.FLATNESS_THRESHOLD``) are
contract-tested against.

The paper's defense needs no detection — the provisioned cache defuses
every pattern.  But operators still want to *know* they are under
attack (for upstream filtering, for capacity decisions), and the
adversarial pattern has a statistical fingerprint: Theorem 1 drives the
attacker toward a **uniform prefix** — maximally flat over many keys —
while benign traffic is skewed (Zipf-like heads) and flash crowds are
extreme point concentrations.

The signal used here is *normalised entropy* of the observed key
frequencies, ``H / log(distinct keys)``:

- flash crowd: few keys, entropy near 0 relative to the key count;
- benign skew: broad support, mid-range normalised entropy;
- Theorem-1 attack: broad support, normalised entropy near 1 (uniform).

A flatness score this simple obviously isn't a production IDS; it is
the honest quantitative version of "the optimal attack is conspicuously
flat", and the tests show it separates the three regimes cleanly at the
paper's scales.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from repro.exceptions import AnalysisError

__all__ = ["TrafficProfile", "profile_counts", "profile_keys"]

#: Above this normalised entropy (with non-trivial support) traffic is
#: flagged as uniform-flood-like.
FLATNESS_THRESHOLD = 0.95

#: Below this normalised entropy traffic is a concentration (hot-spot /
#: flash-crowd) pattern.
CONCENTRATION_THRESHOLD = 0.5


@dataclass(frozen=True)
class TrafficProfile:
    """Statistical fingerprint of an observed key-frequency vector."""

    total_queries: int
    distinct_keys: int
    normalized_entropy: float
    top_key_share: float
    head_share_1pct: float

    @property
    def verdict(self) -> str:
        """Coarse classification: ``"uniform-flood"``, ``"concentrated"``
        or ``"skewed-benign"``."""
        if self.distinct_keys <= 1:
            return "concentrated"
        if self.normalized_entropy >= FLATNESS_THRESHOLD:
            return "uniform-flood"
        if self.normalized_entropy <= CONCENTRATION_THRESHOLD:
            return "concentrated"
        return "skewed-benign"

    @property
    def flood_like(self) -> bool:
        """True for the Theorem-1 fingerprint (flat over many keys)."""
        return self.verdict == "uniform-flood" and self.distinct_keys > 10

    def describe(self) -> str:
        """One-line summary."""
        return (
            f"{self.total_queries} queries over {self.distinct_keys} keys; "
            f"normalized entropy {self.normalized_entropy:.3f}, "
            f"top key {100 * self.top_key_share:.1f}% -> {self.verdict}"
        )


def profile_counts(counts: Sequence[int]) -> TrafficProfile:
    """Profile a per-key count vector (zeros allowed, they are ignored)."""
    counts = np.asarray(counts, dtype=float)
    if counts.ndim != 1 or counts.size == 0:
        raise AnalysisError("counts must be a non-empty 1-D vector")
    if np.any(counts < 0):
        raise AnalysisError("counts must be non-negative")
    positive = counts[counts > 0]
    total = float(positive.sum())
    if total == 0:
        raise AnalysisError("need at least one observed query")
    distinct = int(positive.size)
    probs = positive / total
    entropy = float(-(probs * np.log(probs)).sum())
    max_entropy = math.log(distinct) if distinct > 1 else 1.0
    normalized = entropy / max_entropy if distinct > 1 else 0.0
    sorted_desc = np.sort(positive)[::-1]
    head = max(1, distinct // 100)
    return TrafficProfile(
        total_queries=int(round(total)),
        distinct_keys=distinct,
        normalized_entropy=normalized,
        top_key_share=float(sorted_desc[0] / total),
        head_share_1pct=float(sorted_desc[:head].sum() / total),
    )


def profile_keys(keys: Sequence[int], m: Union[int, None] = None) -> TrafficProfile:
    """Profile a raw key stream (what a front end actually observes)."""
    keys = np.asarray(keys, dtype=np.int64)
    if keys.ndim != 1 or keys.size == 0:
        raise AnalysisError("keys must be a non-empty 1-D sequence")
    length = int(keys.max()) + 1 if m is None else m
    counts = np.bincount(keys, minlength=length)
    return profile_counts(counts)
