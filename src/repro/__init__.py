"""repro — full reproduction of *Secure Cache Provision: Provable DDoS
Prevention for Randomly Partitioned Services with Replication*
(Chu, Guan, Lui, Cai, Shi; IEEE ICDCS Workshops 2013).

The package is organised bottom-up:

- substrates: :mod:`repro.ballsbins` (allocation theory),
  :mod:`repro.cluster` (nodes, partitioning, replica selection),
  :mod:`repro.cache` (front-end policies), :mod:`repro.workload`
  (popularity laws and query streams), :mod:`repro.adversary`
  (attack strategies);
- the paper's contribution: :mod:`repro.core` (Theorem 1, the Eq. (10)
  bound, the case analysis and the O(n log log n / log d) cache-size
  result);
- engines and measurement: :mod:`repro.sim`, :mod:`repro.analysis`,
  :mod:`repro.obs` (deterministic metrics + phase tracing),
  :mod:`repro.chaos` (deterministic fault injection with failover and
  degraded-bound tracking);
- the evaluation: :mod:`repro.experiments` (one driver per figure) and
  the ``python -m repro`` CLI.

Quickstart
----------
>>> from repro import SystemParameters, recommend, plan_best_attack
>>> system = SystemParameters(n=1000, m=100_000, c=200, d=3, rate=1e5)
>>> plan_best_attack(system, k=1.2).effective   # c=200 is too small
True
>>> recommend(system, k=1.2).required_cache     # provision this instead
1201
"""

from .core import (
    AttackAssessment,
    AttackPlan,
    SystemParameters,
    attack_gain,
    classify_attack,
    critical_cache_size,
    expected_max_load_bound,
    is_provably_protected,
    normalized_max_load_bound,
    plan_best_attack,
    recommend,
    required_cache_size,
)
from .sim import (
    EventDrivenSimulator,
    MonteCarloSimulator,
    simulate_distribution,
)
from .obs import MetricsRegistry, RunContext, Tracer
from .chaos import ChaosConfig, FailureSchedule, RetryPolicy
from .types import LoadReport, LoadVector
from .exceptions import ReproError

__version__ = "1.0.0"

__all__ = [
    "SystemParameters",
    "AttackPlan",
    "AttackAssessment",
    "attack_gain",
    "classify_attack",
    "critical_cache_size",
    "required_cache_size",
    "is_provably_protected",
    "recommend",
    "plan_best_attack",
    "expected_max_load_bound",
    "normalized_max_load_bound",
    "MonteCarloSimulator",
    "EventDrivenSimulator",
    "simulate_distribution",
    "RunContext",
    "MetricsRegistry",
    "Tracer",
    "ChaosConfig",
    "FailureSchedule",
    "RetryPolicy",
    "LoadVector",
    "LoadReport",
    "ReproError",
    "__version__",
]
