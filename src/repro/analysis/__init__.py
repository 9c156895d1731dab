"""Measurement and statistics over simulation outcomes."""

from .tightness import TightnessReport, bound_tightness
from .warmup import WarmupReport, attack_window, queries_to_warm, warmup_curve
from .detection import TrafficProfile, profile_counts, profile_keys

__all__ = [
    "WarmupReport",
    "warmup_curve",
    "queries_to_warm",
    "attack_window",
    "TrafficProfile",
    "profile_counts",
    "profile_keys",
    "TightnessReport",
    "bound_tightness",
]
