"""Cache warmup dynamics: the attack window after a cold start.

The paper's perfect cache is always warm; a real front end that just
restarted (or got flushed) serves *nothing* until its policy re-learns
the popular set — and during that window the back end faces the raw
workload, i.e. exactly the situation the cache was provisioned to
prevent.  This test helper measures the window:

- :func:`warmup_curve` — hit rate per window of a replayed stream;
- :func:`queries_to_warm` — how many queries until the policy reaches a
  target fraction of its own steady-state hit rate;
- :func:`attack_window` — converts that to seconds at a given rate,
  which is the operational number ("after a front-end restart we are
  exposed for N seconds; stagger restarts accordingly").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.cache.base import Cache
from repro.exceptions import AnalysisError

__all__ = ["WarmupReport", "warmup_curve", "queries_to_warm", "attack_window"]


def warmup_curve(
    cache: Cache, keys: Sequence[int], window: int = 1000
) -> np.ndarray:
    """Replay ``keys`` through a cold ``cache``; return per-window hit rates.

    The cache is mutated (that is the measurement).  The last partial
    window is dropped — its rate would be noisier than the rest.
    """
    if window < 1:
        raise AnalysisError(f"window must be positive, got {window}")
    keys = list(keys)
    if len(keys) < window:
        raise AnalysisError(
            f"need at least one full window ({window} queries), got {len(keys)}"
        )
    rates: List[float] = []
    hits = 0
    seen = 0
    for key in keys:
        hits += cache.access(int(key))
        seen += 1
        if seen == window:
            rates.append(hits / window)
            hits = 0
            seen = 0
    return np.asarray(rates)


@dataclass(frozen=True)
class WarmupReport:
    """Outcome of a warmup measurement."""

    queries_to_warm: Optional[int]
    steady_hit_rate: float
    target_fraction: float
    curve: np.ndarray
    window: int

    @property
    def warmed(self) -> bool:
        """Whether the target was reached within the replayed stream."""
        return self.queries_to_warm is not None

    def seconds_at(self, rate: float) -> Optional[float]:
        """The attack window in seconds at offered rate ``rate``."""
        if rate <= 0:
            raise AnalysisError(f"rate must be positive, got {rate}")
        if self.queries_to_warm is None:
            return None
        return self.queries_to_warm / rate


def queries_to_warm(
    cache: Cache,
    keys: Sequence[int],
    target_fraction: float = 0.9,
    window: int = 1000,
) -> WarmupReport:
    """Queries until the hit rate reaches ``target_fraction`` of steady state.

    Steady state is estimated from the final quarter of the replayed
    stream, so the stream must be long enough to actually converge
    (a few multiples of the cache size).
    """
    if not 0.0 < target_fraction <= 1.0:
        raise AnalysisError(
            f"target_fraction must be in (0, 1], got {target_fraction}"
        )
    curve = warmup_curve(cache, keys, window=window)
    if curve.size < 4:
        raise AnalysisError(
            "stream too short to estimate steady state; use more queries "
            "or a smaller window"
        )
    steady = float(curve[-max(1, curve.size // 4):].mean())
    threshold = target_fraction * steady
    warmed_at: Optional[int] = None
    for i, rate in enumerate(curve):
        if rate >= threshold and steady > 0:
            warmed_at = (i + 1) * window
            break
    return WarmupReport(
        queries_to_warm=warmed_at,
        steady_hit_rate=steady,
        target_fraction=target_fraction,
        curve=curve,
        window=window,
    )


def attack_window(
    cache: Cache,
    keys: Sequence[int],
    rate: float,
    target_fraction: float = 0.9,
    window: int = 1000,
) -> Optional[float]:
    """Seconds of post-restart exposure at offered rate ``rate``.

    Convenience wrapper over :func:`queries_to_warm`; returns ``None``
    when the policy never warms within the replayed stream (itself an
    important finding — e.g. LRU under a cyclic scan).
    """
    report = queries_to_warm(
        cache, keys, target_fraction=target_fraction, window=window
    )
    return report.seconds_at(rate)
