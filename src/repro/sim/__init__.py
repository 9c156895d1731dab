"""Simulation engines.

Two complementary engines drive every experiment:

- :mod:`repro.sim.analytic` — the Monte-Carlo placement simulator that
  mirrors the paper's own methodology (random replica groups, per-key
  steady-state rates, max over trials).  Fast enough for the full
  n=1000 / m=1e5 / 200-trial figures.
- :mod:`repro.sim.eventsim` — a request-level discrete-event simulator
  with real cache policies, per-node queues, capacities and drops, used
  to validate that the placement model's conclusions survive contact
  with queueing dynamics.
"""

from .analytic import MonteCarloSimulator, simulate_distribution
from .parallel import map_trials, resolve_workers
from .runner import run_trials
from .eventsim import EventDrivenSimulator, EventSimResult
from .batch import EventCampaign, run_event_campaign

__all__ = [
    "EventCampaign",
    "run_event_campaign",
    "MonteCarloSimulator",
    "simulate_distribution",
    "map_trials",
    "resolve_workers",
    "run_trials",
    "EventDrivenSimulator",
    "EventSimResult",
]
