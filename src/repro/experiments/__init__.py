"""Experiment drivers: one callable per figure of the paper.

Every driver returns an :class:`~repro.experiments.report.ExperimentResult`
whose ``columns`` hold the same series the paper plots, so the CLI
and the tests consume one representation.

Scale knobs: each driver takes ``trials`` (paper: 200) and, where it
matters, the key-space size, so the slow shape tests can run a
faithful-shape reduced version quickly while ``python -m repro <fig> --full`` runs the
paper-scale configuration.
"""

from .params import PaperParams, PAPER
from .report import ExperimentResult, render_table
from .fig3 import run_fig3a, run_fig3b, run_fig3
from .fig4 import run_fig4
from .fig5 import run_fig5a, run_fig5b, run_fig5
from .plot import ascii_plot

__all__ = [
    "ascii_plot",
    "PaperParams",
    "PAPER",
    "ExperimentResult",
    "render_table",
    "run_fig3",
    "run_fig3a",
    "run_fig3b",
    "run_fig4",
    "run_fig5",
    "run_fig5a",
    "run_fig5b",
]
