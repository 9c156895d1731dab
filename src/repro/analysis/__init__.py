"""Measurement and statistics over simulation outcomes."""

from .tightness import TightnessReport, bound_tightness

__all__ = [
    "TightnessReport",
    "bound_tightness",
]
