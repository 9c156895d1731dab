"""Front-end failover: detection timeout, backoff, one redispatch.

When a replica crashes, the front end in Figure 1 does not learn about
it instantly — it dispatches, waits out a detection timeout, and only
then fails over to another member of the key's replica group.  The
:class:`RetryPolicy` captures that loop as plain data.  What the event
engine (:mod:`repro.sim.kernel`) does with it:

- attempt 1 routes normally (whatever routing policy is configured);
- a request whose node is down fails over after ``delay(1)`` — the
  timeout plus ``min(backoff, max_backoff)`` — to the first member of
  its replica group, in group order, that was not tried and is up at
  that time;
- when no such member is up, the request is **unavailable** — counted,
  and optionally served stale by the front-end cache (see
  :class:`repro.chaos.config.ChaosConfig`).  With ``max_attempts == 1``
  (or ``d == 1``) it is unavailable at once.

A failover always lands on an up node, so a request fails over at most
once: ``max_attempts`` above 2 and the backoff growth of later attempts
(``multiplier``; ``delay(a)`` for ``a > 1``) never come into play.

The policy is a frozen dataclass, so it is hashable, picklable and
participates in configuration equality — chaos campaigns stay
bit-identical across worker counts.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import ConfigurationError

__all__ = ["RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """Timeout + capped exponential backoff across surviving replicas.

    Parameters
    ----------
    max_attempts:
        Total dispatch attempts per request, the first included.  ``1``
        disables failover; any larger value allows the one failover the
        engine makes (see the module docs).
    timeout:
        Simulated seconds a dead dispatch costs before the front end
        declares it failed (the failure-detection delay).
    backoff:
        Base backoff before the first retry (seconds).
    multiplier:
        Geometric growth factor applied per additional retry.
    max_backoff:
        Upper cap on any single backoff delay (seconds).
    """

    max_attempts: int = 3
    timeout: float = 0.05
    backoff: float = 0.01
    multiplier: float = 2.0
    max_backoff: float = 0.2

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.timeout < 0 or self.backoff < 0 or self.max_backoff < 0:
            raise ConfigurationError(
                "timeout, backoff and max_backoff must be >= 0"
            )
        if self.multiplier < 1.0:
            raise ConfigurationError(
                f"multiplier must be >= 1, got {self.multiplier}"
            )

    def delay(self, attempt: int) -> float:
        """Simulated delay between failed attempt ``attempt`` (1-based)
        and the next dispatch: detection timeout plus capped backoff."""
        if attempt < 1:
            raise ConfigurationError(f"attempt must be >= 1, got {attempt}")
        return self.timeout + min(
            self.backoff * self.multiplier ** (attempt - 1), self.max_backoff
        )
