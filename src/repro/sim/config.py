"""Simulation configuration shared by the engines and experiment drivers."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from ..chaos.config import ChaosConfig
from ..core.notation import SystemParameters
from ..exceptions import ConfigurationError

__all__ = ["SimulationConfig"]


@dataclass(frozen=True)
class SimulationConfig:
    """Everything needed to reproduce one simulation campaign.

    Parameters
    ----------
    params:
        The system under test.
    trials:
        Independent repetitions; the paper uses 200 and reports the max.
    seed:
        Root seed; every trial derives an independent stream from it.
    selection:
        Replica-selection policy name (see
        :func:`repro.cluster.selection.make_selection_policy`).  The
        theory model — and default — is ``"least-loaded"``.
    chaos:
        Optional :class:`repro.chaos.ChaosConfig`.  The Monte-Carlo
        engine has no clock, so it applies the process's *steady-state*
        down fraction per trial: a failure set is sampled from the
        trial's own stream, replica groups are degraded, and the
        placement re-runs over the survivors.  It changes results, so it
        is part of the configuration identity.  ``None`` keeps every
        trial byte-identical to the pre-chaos engine.

    Instruments and the worker count are not configuration: they ride
    in the :class:`repro.obs.RunContext` the simulator takes beside it.
    """

    params: SystemParameters
    trials: int = 200
    seed: Optional[int] = None
    selection: str = "least-loaded"
    chaos: Optional[ChaosConfig] = None

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ConfigurationError(f"need at least one trial, got {self.trials}")
        if self.chaos is not None and not isinstance(self.chaos, ChaosConfig):
            raise ConfigurationError(
                f"chaos must be a ChaosConfig or None, got {type(self.chaos).__name__}"
            )

    def with_params(self, params: SystemParameters) -> "SimulationConfig":
        """Copy with a different system (used by sweeps)."""
        return replace(self, params=params)

    def with_trials(self, trials: int) -> "SimulationConfig":
        """Copy with a different trial count (used by quick modes)."""
        return replace(self, trials=trials)
