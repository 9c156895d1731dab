"""The chaos knob: one frozen config shared by both simulation engines.

A :class:`ChaosConfig` bundles the failure model (an explicit
:class:`~repro.chaos.schedule.FailureSchedule` or the ``failure_rate`` /
``mttr`` process parameters to synthesise one per trial), the front-end
:class:`~repro.chaos.retry.RetryPolicy`, and the graceful-degradation
switch (``serve_stale``).  Passing ``chaos=None`` anywhere keeps every
code path byte-identical to the pre-chaos behaviour — the same contract
the observability layer keeps with its null run context.

Both engines consume it:

- the **event engine** (:class:`repro.sim.eventsim.EventDrivenSimulator`)
  replays the schedule live: crashes lose a node's queue, routing pays
  the retry policy's timeout/backoff, keys with no surviving replica
  are counted unavailable (and optionally served stale);
- the **Monte-Carlo engine** (:class:`repro.sim.analytic.MonteCarloSimulator`)
  has no clock, so it uses the process's *steady-state* down fraction:
  each trial samples a failure set of that size, degrades the replica
  groups (:func:`repro.cluster.failures.degrade_groups`) and re-runs
  the placement on the survivors — effective ``d`` shrinks exactly as
  Theorem 2's constant ``k = log log n / log d`` predicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from ..exceptions import ConfigurationError
from ..scenario.registry import register_component
from .retry import RetryPolicy
from .schedule import FailureSchedule

__all__ = ["ChaosConfig"]

RngLike = Union[None, int, np.random.Generator]


def _build_chaos(ctx, retry=None, schedule=None, **params):
    """Spec builder: ``{kind: renewal, failure_rate: ..., retry: {...}}``.

    ``retry`` is the :class:`~repro.chaos.retry.RetryPolicy` fields as a
    mapping.  ``schedule`` is the path of a JSON
    :class:`~repro.chaos.schedule.FailureSchedule` to replay in every
    trial instead of synthesising one per trial (the event-driven engine
    only: Monte-Carlo trials have no clock to replay it on).
    """
    kwargs = dict(params)
    if retry is not None:
        kwargs["retry"] = RetryPolicy(**retry)
    if schedule is not None:
        kwargs["schedule"] = FailureSchedule.from_json(schedule)
    return ChaosConfig(**kwargs)


@register_component("chaos", "renewal", builder=_build_chaos)
@dataclass(frozen=True)
class ChaosConfig:
    """Fault-injection parameters for a simulation campaign.

    Parameters
    ----------
    schedule:
        Explicit event schedule (replayed identically in every trial).
        ``None`` synthesises a fresh per-trial schedule from
        ``failure_rate`` / ``mttr`` on the trial's own RNG stream.
    failure_rate:
        Per-node crash intensity (crashes / simulated second) used when
        synthesising schedules, and to derive the Monte-Carlo engine's
        steady-state failed fraction.
    mttr:
        Mean time to repair (simulated seconds).
    slow_rate, slow_factor:
        Optional brown-out process (see
        :meth:`~repro.chaos.schedule.FailureSchedule.generate`).
    retry:
        The front-end failover policy.
    serve_stale:
        When True, requests whose every replica is down are answered
        stale by the front end if the key was ever fetched before
        (counted separately from fresh hits); when False they simply
        fail.
    """

    schedule: Optional[FailureSchedule] = None
    failure_rate: float = 0.02
    mttr: float = 0.25
    slow_rate: float = 0.0
    slow_factor: float = 0.25
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    serve_stale: bool = True

    def __post_init__(self) -> None:
        if self.failure_rate < 0 or self.slow_rate < 0:
            raise ConfigurationError("failure_rate and slow_rate must be >= 0")
        if self.mttr <= 0:
            raise ConfigurationError(f"mttr must be positive, got {self.mttr}")
        if not 0.0 < self.slow_factor <= 1.0:
            raise ConfigurationError(
                f"slow_factor must be in (0, 1], got {self.slow_factor}"
            )

    @property
    def steady_state_failed_fraction(self) -> float:
        """Long-run fraction of nodes down under the renewal model.

        Each node alternates Up ~ Exp(1/failure_rate) and Down ~
        Exp(mttr) periods, so the stationary down probability is
        ``mttr / (1/failure_rate + mttr)``.
        """
        if self.failure_rate == 0:
            return 0.0
        up_mean = 1.0 / self.failure_rate
        return self.mttr / (up_mean + self.mttr)

    def schedule_for(
        self, n: int, duration: float, rng: RngLike = None
    ) -> FailureSchedule:
        """The explicit schedule, or a synthesised one for this run."""
        if self.schedule is not None:
            return self.schedule
        return FailureSchedule.generate(
            n=n,
            duration=duration,
            failure_rate=self.failure_rate,
            mttr=self.mttr,
            rng=rng,
            slow_rate=self.slow_rate,
            slow_factor=self.slow_factor,
        )

    def describe(self) -> str:
        """One-line summary of what a Monte-Carlo trial simulates.

        The figures print it.  Their trials sample the renewal process's
        steady state only, so the retry policy and ``serve_stale`` (which
        only the event engine replays) are left out.
        """
        return (
            f"chaos: failure_rate={self.failure_rate}/s, mttr={self.mttr}s "
            f"(steady-state down fraction "
            f"{self.steady_state_failed_fraction:.3f})"
        )
