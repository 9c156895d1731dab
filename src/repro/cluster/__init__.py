"""The back-end cluster substrate: partitioning and replica selection.

Models the lower half of the paper's Figure 1: ``n`` back-end nodes over
which ``m`` items are randomly partitioned with replication factor
``d``.  The partitioning seed is private to the partitioner — the
adversary-facing API never exposes key -> node mappings, mirroring the
paper's "opaque to the clients" assumption.
"""

from .partitioner import (
    ConsistentHashPartitioner,
    HashPartitioner,
    Partitioner,
    RandomTablePartitioner,
)
from .selection import (
    LeastLoadedKeyPinning,
    LeastUtilizedKeyPinning,
    PerQueryRandomSpreading,
    PrimaryKeyPinning,
    RandomKeyPinning,
    RoundRobinSpreading,
    SelectionPolicy,
    make_selection_policy,
)
from .hierarchy import (
    CascadeLayerSelection,
    LayeredPartitioner,
    LayerSelection,
    TwoChoiceLayerSelection,
    make_layer_selection,
)
from .failures import (
    DegradedGroups,
    degrade_groups,
    expected_unavailable_fraction,
    sample_failures,
)

__all__ = [
    "Partitioner",
    "HashPartitioner",
    "ConsistentHashPartitioner",
    "RandomTablePartitioner",
    "SelectionPolicy",
    "LeastLoadedKeyPinning",
    "LeastUtilizedKeyPinning",
    "RandomKeyPinning",
    "PrimaryKeyPinning",
    "RoundRobinSpreading",
    "PerQueryRandomSpreading",
    "make_selection_policy",
    "LayeredPartitioner",
    "LayerSelection",
    "CascadeLayerSelection",
    "TwoChoiceLayerSelection",
    "make_layer_selection",
    "DegradedGroups",
    "degrade_groups",
    "sample_failures",
    "expected_unavailable_fraction",
]
