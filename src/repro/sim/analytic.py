"""The Monte-Carlo placement simulator — the paper's own methodology.

Section IV describes one simulation run as: pick ``x`` keys, query them
all at the same rate; the ``c`` most popular hit the front-end cache, so
``x - c`` keys reach the back end; each key's replica group is ``d``
random nodes and the key is served by one group member; record the load
of the most loaded node.  Repeat 200 times and report the max.

:meth:`MonteCarloSimulator.distribution_attack` runs that campaign
for any popularity law: the paper's x-key attack is an
:class:`~repro.workload.adversarial.AdversarialDistribution`, and Figure
4's uniform and Zipf(1.01) series are the others.  The perfect
front-end cache absorbs the distribution's true top-``c``.
:func:`simulate_distribution` is its one-call form.
"""

from __future__ import annotations

from functools import partial
from typing import Optional

import numpy as np

from ..ballsbins.allocation import sample_replica_groups
from ..chaos.config import ChaosConfig
from ..cluster.failures import degrade_groups, sample_failures
from ..cluster.selection import make_selection_policy
from ..core.notation import SystemParameters
from ..exceptions import ConfigurationError, SimulationError
from ..obs.context import NULL_CONTEXT, RunContext
from ..types import LoadReport, LoadVector
from ..workload.adversarial import AdversarialDistribution
from ..workload.distributions import KeyDistribution
from .runner import campaign_series, run_trials

__all__ = ["MonteCarloSimulator", "simulate_distribution"]


class MonteCarloSimulator:
    """Reusable facade over the placement simulator.

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
        placement re-runs over the survivors.  ``None`` keeps every
        trial byte-identical to the pre-chaos engine.
    context:
        The :class:`repro.obs.RunContext` its campaigns run under: the
        instruments and the worker count, neither of which changes a
        result.
    """

    def __init__(
        self,
        params: SystemParameters,
        *,
        trials: int = 200,
        seed: Optional[int] = None,
        selection: str = "least-loaded",
        chaos: Optional[ChaosConfig] = None,
        context: RunContext = NULL_CONTEXT,
    ) -> None:
        if trials < 1:
            raise ConfigurationError(f"need at least one trial, got {trials}")
        if chaos is not None and not isinstance(chaos, ChaosConfig):
            raise ConfigurationError(
                f"chaos must be a ChaosConfig or None, got {type(chaos).__name__}"
            )
        if chaos is not None and selection != "least-loaded":
            raise ConfigurationError(
                "chaos-enabled Monte-Carlo trials re-pin keys over surviving "
                "replicas with the least-loaded rule; "
                f"selection={selection!r} is not supported with chaos"
            )
        if chaos is not None and chaos.schedule is not None:
            raise ConfigurationError(
                "Monte-Carlo trials have no clock to replay an explicit "
                "failure schedule on; they sample the renewal process's "
                "steady-state failed fraction — give failure_rate/mttr, or "
                "replay the schedule with the event-driven engine"
            )
        self._params = params
        self._trials = trials
        self._seed = seed
        self._selection_name = selection
        self._chaos = chaos
        self._context = context
        self._selection = make_selection_policy(selection)

    # -- one trial -----------------------------------------------------------

    def distribution_trial(
        self, rates: np.ndarray, gen: np.random.Generator
    ) -> LoadVector:
        """One trial (Section IV, one run): one ball per uncached key.

        ``rates`` holds each uncached key's query rate.  Every key gets
        a random replica group and is placed on one member by the
        selection policy (or by the chaos path's degraded greedy).
        """
        params = self._params
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
        params, chaos = self._params, self._chaos
        if chaos is None:
            return self._selection.node_loads(groups, rates, params.n, rng=gen)
        failed = sample_failures(
            params.n, chaos.steady_state_failed_fraction, rng=gen
        )
        degraded = degrade_groups(groups, failed, params.n)
        return degraded.least_loaded_loads(rates, params.n)

    def _campaign(self, rates: np.ndarray, label: str, metadata: dict) -> LoadReport:
        """Run :meth:`distribution_trial` over ``rates`` for every trial.

        Each trial's vector then becomes one trial-clock window of the
        ``monitor`` (:meth:`~repro.obs.LoadMonitor.record_trial`), with
        the Theorem-2 bound per ``x`` and the degraded bound per chaos
        ``effective_d``.  They are recorded here, in the parent in trial
        order, so the ``monitor_gain`` gauge keeps its last write.
        """
        params = self._params
        report, vectors = run_trials(
            partial(_trial_task, self, rates),
            self._trials,
            seed=self._seed,
            label=label,
            metadata={
                **metadata, "selection": self._selection_name,
                **_param_meta(params),
                **_chaos_meta(params, self._chaos),
            },
            context=self._context,
        )
        monitor = self._context.monitor
        if monitor.enabled:
            meta = report.metadata
            series = campaign_series(label, meta)
            for t, vector in enumerate(vectors):
                monitor.record_trial(
                    t, vector, campaign=series, x=meta.get("x"), c=params.c,
                    d=params.d, effective_d=meta.get("effective_d"),
                )
        return report

    # -- the campaign -------------------------------------------------------

    def distribution_attack(self, distribution: KeyDistribution) -> LoadReport:
        """Multi-trial run of an access pattern; the unit of Figs. 3–5.

        The perfect front end absorbs the distribution's true top-``c``
        keys; every other positive-rate key becomes a ball with its
        steady-state rate as weight.  An
        :class:`~repro.workload.adversarial.AdversarialDistribution`
        also records its attack width ``x`` in the report metadata, so
        the monitor tracks the per-``x`` Theorem-2 bound.
        """
        params = self._params
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
        metadata = {"distribution": distribution.name}
        if isinstance(distribution, AdversarialDistribution):
            metadata["x"] = distribution.x
        return self._campaign(
            rates, f"distribution-{distribution.name}", metadata
        )


def _param_meta(params: SystemParameters) -> dict:
    return {"n": params.n, "m": params.m, "c": params.c, "d": params.d}


def _chaos_meta(params: SystemParameters, chaos: Optional[ChaosConfig]) -> dict:
    """Chaos provenance for a campaign's report metadata.

    ``effective_d`` is the steady-state mean surviving choice
    ``d * (1 - f)``; :meth:`MonteCarloSimulator._campaign` forwards it
    to the monitor so chaos campaigns get degraded-bound tracking too.
    """
    if chaos is None:
        return {}
    fraction = chaos.steady_state_failed_fraction
    return {
        "failed_fraction": fraction,
        "effective_d": params.d * (1.0 - fraction),
    }


def _trial_task(
    sim: "MonteCarloSimulator",
    rates: np.ndarray,
    gen: np.random.Generator,
    trial: int,
    context: RunContext,
) -> LoadVector:
    """Spawn-safe top-level wrapper for one trial (records nothing)."""
    return sim.distribution_trial(rates, gen)


def simulate_distribution(
    params: SystemParameters,
    distribution: KeyDistribution,
    trials: int = 200,
    seed: Optional[int] = None,
    selection: str = "least-loaded",
    context: RunContext = NULL_CONTEXT,
) -> LoadReport:
    """One-call version of :meth:`MonteCarloSimulator.distribution_attack`.

    ``context`` (a :class:`repro.obs.RunContext`) carries the worker
    count and the instruments; the campaign runner records its
    deterministic aggregates in the parent, so attaching a registry
    (e.g. a bench's) never changes the report.
    """
    sim = MonteCarloSimulator(
        params, trials=trials, seed=seed, selection=selection, context=context
    )
    return sim.distribution_attack(distribution)
