"""The Monte-Carlo placement simulator — the paper's own methodology.

Section IV describes one simulation run as: pick ``x`` keys, query them
all at the same rate; the ``c`` most popular hit the front-end cache, so
``x - c`` keys reach the back end; each key's replica group is ``d``
random nodes and the key is served by one group member; record the load
of the most loaded node.  Repeat 200 times and report the max.

:func:`simulate_uniform_attack` implements exactly that.
:func:`simulate_distribution` generalises it to any popularity law
(needed for the uniform and Zipf(1.01) series of Figure 4), with the
perfect front-end cache absorbing the distribution's true top-``c``.
"""

from __future__ import annotations

from functools import partial
from typing import Optional, Tuple

import numpy as np

from ..ballsbins.allocation import sample_replica_groups
from ..cluster.failures import degrade_groups, sample_failures
from ..cluster.selection import make_selection_policy
from ..core.notation import SystemParameters
from ..exceptions import ConfigurationError, SimulationError
from ..obs.context import NULL_CONTEXT, RunContext
from ..types import LoadReport, LoadVector
from ..workload.distributions import KeyDistribution
from .config import SimulationConfig
from .runner import run_trials

__all__ = [
    "MonteCarloSimulator",
    "simulate_uniform_attack",
    "simulate_distribution",
    "best_achievable_gain",
]


class MonteCarloSimulator:
    """Reusable facade over the placement simulator.

    Holds a :class:`~repro.sim.config.SimulationConfig` plus the
    :class:`repro.obs.RunContext` its campaigns run under (instruments
    and worker count) and exposes the per-experiment entry points; the
    module-level functions are single-shot conveniences over the same
    code.
    """

    def __init__(
        self, config: SimulationConfig, context: RunContext = NULL_CONTEXT
    ) -> None:
        self._config = config
        self._context = context
        self._selection = make_selection_policy(config.selection)
        if config.chaos is not None and config.selection != "least-loaded":
            raise ConfigurationError(
                "chaos-enabled Monte-Carlo trials re-pin keys over surviving "
                "replicas with the least-loaded rule; "
                f"selection={config.selection!r} is not supported with chaos"
            )
        if config.chaos is not None and config.chaos.schedule is not None:
            raise ConfigurationError(
                "Monte-Carlo trials have no clock to replay an explicit "
                "failure schedule on; they sample the renewal process's "
                "steady-state failed fraction — give failure_rate/mttr, or "
                "replay the schedule with the event-driven engine"
            )

    @property
    def config(self) -> SimulationConfig:
        """The campaign configuration."""
        return self._config

    # -- one trial -----------------------------------------------------------

    def distribution_trial(
        self, rates: np.ndarray, gen: np.random.Generator
    ) -> LoadVector:
        """One trial (Section IV, one run): one ball per uncached key.

        ``rates`` holds each uncached key's query rate.  Every key gets
        a random replica group and is placed on one member by the
        selection policy (or by the chaos path's degraded greedy).
        """
        params = self._config.params
        if rates.size == 0:
            # Every queried key is cached: the back end sees nothing.
            return LoadVector(loads=np.zeros(params.n), total_rate=params.rate)
        # Phase spans are wall-clock and process-local: they record in
        # serial runs; with workers > 1 the worker's copy is discarded
        # (metric determinism is unaffected — spans never touch the
        # registry).
        spans = self._context.spans
        with spans.span("partition"):
            groups = sample_replica_groups(rates.size, params.n, params.d, rng=gen)
        with spans.span("allocation"):
            loads = self._node_loads(groups, rates, gen)
        return LoadVector(loads=loads, total_rate=params.rate)

    def _node_loads(
        self, groups: np.ndarray, rates: np.ndarray, gen: np.random.Generator
    ) -> np.ndarray:
        """Place keys on nodes, degrading groups first when chaos is on.

        The chaos path samples a failure set of the renewal process's
        steady-state size from the *trial's own* generator (so chaos
        campaigns stay bit-identical across worker counts), strips the
        failed nodes from every replica group, and re-runs the greedy
        least-loaded placement over the survivors — unavailable keys
        contribute no load, surviving keys concentrate on fewer nodes.
        """
        params = self._config.params
        chaos = self._config.chaos
        if chaos is None:
            return self._selection.node_loads(groups, rates, params.n, rng=gen)
        failed = sample_failures(
            params.n, chaos.steady_state_failed_fraction, rng=gen
        )
        degraded = degrade_groups(groups, failed, params.n)
        return degraded.least_loaded_loads(rates, params.n)

    def _campaign(self, rates: np.ndarray, label: str, metadata: dict) -> LoadReport:
        """Run :meth:`distribution_trial` over ``rates`` for every trial.

        The trial callable is a ``partial`` over a module-level function
        (not a lambda) so ``workers > 1`` can ship it to worker processes.
        """
        cfg = self._config
        return run_trials(
            partial(_trial_task, self, rates),
            trials=cfg.trials,
            seed=cfg.seed,
            label=label,
            metadata={
                **metadata, "selection": cfg.selection,
                **_param_meta(cfg.params), **_chaos_meta(cfg),
            },
            context=self._context,
        )

    # -- the paper's experiment -------------------------------------------

    def uniform_attack(self, x: int) -> LoadReport:
        """Multi-trial x-key uniform attack; the unit of Figs. 3 and 5."""
        params = self._config.params
        if not 1 <= x <= params.m:
            raise ConfigurationError(f"need 1 <= x <= m={params.m}, got x={x}")
        with self._context.spans.span("workload"):
            # The paper's "queried at the same rate": every uncached key
            # carries exactly R/x.
            rates = np.full(max(x - params.c, 0), params.rate / x)
        return self._campaign(rates, f"uniform-attack-x{x}", {"x": x})

    # -- arbitrary popularity laws (Figure 4) ------------------------------

    def distribution_attack(self, distribution: KeyDistribution) -> LoadReport:
        """Multi-trial run of an arbitrary access pattern.

        The perfect front end absorbs the distribution's true top-``c``
        keys; every other positive-rate key becomes a ball with its
        steady-state rate as weight.
        """
        params = self._config.params
        if distribution.m != params.m:
            raise SimulationError(
                f"distribution covers {distribution.m} keys, system serves {params.m}"
            )
        with self._context.spans.span("workload"):
            probs = distribution.probabilities()
            cached = distribution.top_keys(params.c)
            uncached_mask = probs > 0
            uncached_mask[cached] = False
            rates = probs[uncached_mask] * params.rate
        return self._campaign(
            rates,
            f"distribution-{distribution.name}",
            {"distribution": distribution.name},
        )

    # -- the adversary's endpoint choice (Figure 5) -------------------------

    def best_achievable(self) -> Tuple[float, int, LoadReport]:
        """Best worst-case gain over the two candidate attacks.

        Per the case analysis the optimum is an endpoint: ``x = c + 1``
        or ``x = m``.  Returns ``(gain, x, report)`` for the better one,
        mirroring how the paper's Figure 5 search works ("either
        querying a number of keys that is one more than the cache size
        or querying all keys").
        """
        params = self._config.params
        candidates = []
        small = min(params.c + 1, params.m)
        candidates.append(small)
        if params.m != small:
            candidates.append(params.m)
        best: Optional[Tuple[float, int, LoadReport]] = None
        for x in candidates:
            report = self.uniform_attack(x)
            if best is None or report.worst_case > best[0]:
                best = (report.worst_case, x, report)
        return best


def _param_meta(params: SystemParameters) -> dict:
    return {"n": params.n, "m": params.m, "c": params.c, "d": params.d}


def _chaos_meta(cfg: SimulationConfig) -> dict:
    """Chaos provenance for a campaign's report metadata.

    ``effective_d`` is the steady-state mean surviving choice
    ``d * (1 - f)``; :func:`repro.sim.runner.run_trials` forwards it to
    the monitor so chaos campaigns get degraded-bound tracking too.
    """
    if cfg.chaos is None:
        return {}
    fraction = cfg.chaos.steady_state_failed_fraction
    return {
        "failed_fraction": fraction,
        "effective_d": cfg.params.d * (1.0 - fraction),
    }


def _trial_task(
    sim: "MonteCarloSimulator", rates: np.ndarray, gen: np.random.Generator
) -> LoadVector:
    """Spawn-safe top-level wrapper for one trial."""
    return sim.distribution_trial(rates, gen)


def simulate_uniform_attack(
    params: SystemParameters,
    x: int,
    trials: int = 200,
    seed: Optional[int] = None,
    selection: str = "least-loaded",
    context: RunContext = NULL_CONTEXT,
) -> LoadReport:
    """One-call version of the paper's x-key attack experiment.

    ``context`` (a :class:`repro.obs.RunContext`) carries the worker
    count and the instruments; the campaign runner records its
    deterministic aggregates in the parent, so attaching a registry
    (e.g. a bench's) never changes the report.
    """
    sim = MonteCarloSimulator(
        SimulationConfig(
            params=params,
            trials=trials,
            seed=seed,
            selection=selection,
        ),
        context,
    )
    return sim.uniform_attack(x)


def simulate_distribution(
    params: SystemParameters,
    distribution: KeyDistribution,
    trials: int = 200,
    seed: Optional[int] = None,
    selection: str = "least-loaded",
    context: RunContext = NULL_CONTEXT,
) -> LoadReport:
    """One-call version of the arbitrary-pattern experiment (Figure 4)."""
    sim = MonteCarloSimulator(
        SimulationConfig(
            params=params, trials=trials, seed=seed, selection=selection,
        ),
        context,
    )
    return sim.distribution_attack(distribution)


def best_achievable_gain(
    params: SystemParameters,
    trials: int = 200,
    seed: Optional[int] = None,
    selection: str = "least-loaded",
    context: RunContext = NULL_CONTEXT,
) -> Tuple[float, int]:
    """Best worst-case gain and the ``x`` achieving it (Figure 5 unit)."""
    sim = MonteCarloSimulator(
        SimulationConfig(
            params=params, trials=trials, seed=seed, selection=selection,
        ),
        context,
    )
    gain, x, _ = sim.best_achievable()
    return gain, x
