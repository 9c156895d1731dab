"""Adversary substrate: attack strategies built on public knowledge only.

The threat model (Section III-A): the adversary knows the public system
parameters ``(n, m, c, d)`` and controls an aggregate query rate ``R``,
but cannot observe the key -> replica-group mapping.  Every strategy
here therefore consumes only a
:class:`~repro.core.notation.SystemParameters` — never a partitioner or
cluster object — making the information asymmetry structural.
"""

from .strategies import (
    AdaptiveProbingAdversary,
    Adversary,
    FixedSubsetFlood,
    OptimalAdversary,
    ShardTargetingAdversary,
    UniformFlood,
    ZipfClient,
)
from .planner import compare_with_baseline
from .multiclient import MirroredBotnet, PartitionedBotnet, aggregate_rates

__all__ = [
    "MirroredBotnet",
    "PartitionedBotnet",
    "aggregate_rates",
    "Adversary",
    "OptimalAdversary",
    "FixedSubsetFlood",
    "UniformFlood",
    "ZipfClient",
    "AdaptiveProbingAdversary",
    "ShardTargetingAdversary",
    "compare_with_baseline",
]
