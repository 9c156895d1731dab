"""Workload substrate: key-popularity distributions and operation mixes.

Keys are integers ``0 .. m-1``.  Every distribution exposes an exact
probability vector (for analytic/expected-value work) and fast sampling
(for Monte-Carlo and event-driven work).  The three access patterns of
the paper's Figure 4 — uniform, Zipf(1.01) and adversarial — live here,
alongside the generic machinery.
"""

from .distributions import (
    CustomDistribution,
    GeometricDistribution,
    KeyDistribution,
    PointMassDistribution,
    UniformDistribution,
)
from .zipf import ZipfDistribution
from .adversarial import AdversarialDistribution
from .keyset import KeySetDistribution
from .scan import CyclicScanDistribution
from .mixture import MixtureDistribution
from .costs import OperationMix

__all__ = [
    "CyclicScanDistribution",
    "MixtureDistribution",
    "OperationMix",
    "KeyDistribution",
    "UniformDistribution",
    "PointMassDistribution",
    "CustomDistribution",
    "GeometricDistribution",
    "ZipfDistribution",
    "AdversarialDistribution",
    "KeySetDistribution",
]
