"""Regression comparator over the perf history.

For each bench the *current* run is the last history entry and the
*baseline* is the median of up to ``k`` preceding runs (or of a
separate baseline history file, e.g. the committed one in CI).  The
verdict is deliberately conservative — a run only counts as a
regression when it is **both** relatively slower than
``1 + tolerance`` **and** absolutely slower than ``noise_floor``
seconds, so micro-benchmarks jittering by milliseconds cannot page
anyone.  Comparisons never mix smoke and full-scale runs, nor runs timed
under tracemalloc (old rows with a non-null ``tracemalloc_peak_bytes``)
with untraced ones: memory tracing inflated those timings several-fold.

Schema violations surface as :class:`~repro.perf.schema.PerfSchemaError`
from the history loader before any verdict is computed; the CLI maps
those to a hard failure even in warn-only mode.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..exceptions import ReproError
from .history import RunManifest

__all__ = [
    "Verdict",
    "DEFAULT_K",
    "DEFAULT_TOLERANCE",
    "DEFAULT_NOISE_FLOOR",
    "compare_history",
    "render_verdicts",
]

#: Baseline window: median of up to this many preceding runs.
DEFAULT_K = 5
#: Relative slowdown threshold (0.15 == 15% over baseline).
DEFAULT_TOLERANCE = 0.15
#: Absolute slowdown threshold in seconds; deltas below it are noise.
DEFAULT_NOISE_FLOOR = 0.05

#: Manifest timing fields a comparison may target.
_METRICS = ("engine_seconds", "export_seconds", "wall_seconds")


@dataclass
class Verdict:
    """Comparison outcome for one (bench, smoke-mode, traced) series."""

    bench: str
    smoke: bool
    #: The series was timed under tracemalloc (pre-fix history rows).
    traced: bool
    status: str  # "new" | "regression" | "improvement" | "within-noise"
    metric: str
    current: float
    baseline: Optional[float]
    baseline_runs: int
    ratio: Optional[float]
    delta_seconds: Optional[float]

    @property
    def is_regression(self) -> bool:
        return self.status == "regression"

    def describe(self) -> str:
        mode = _mode(self.smoke) + (", tracemalloc" if self.traced else "")
        if self.baseline is None:
            return (
                f"{self.bench} [{mode}]: new "
                f"({self.metric}={self.current:.4f}s, no baseline yet)"
            )
        sign = "+" if self.delta_seconds >= 0 else ""
        return (
            f"{self.bench} [{mode}]: {self.status} "
            f"({self.metric}={self.current:.4f}s vs baseline "
            f"{self.baseline:.4f}s over {self.baseline_runs} runs, "
            f"{self.ratio:.2f}x, {sign}{self.delta_seconds:.4f}s)"
        )


def _mode(smoke: bool) -> str:
    return "smoke" if smoke else "full"


def _series(
    manifests: Sequence[RunManifest],
) -> Dict[Tuple[str, bool, bool], List[RunManifest]]:
    """Split history into per-(bench, smoke, traced) series, order
    preserved; ``traced`` marks rows timed under tracemalloc."""
    series: Dict[Tuple[str, bool, bool], List[RunManifest]] = {}
    for manifest in manifests:
        traced = manifest.tracemalloc_peak_bytes is not None
        series.setdefault(
            (manifest.bench, manifest.smoke, traced), []
        ).append(manifest)
    return series


def _metric_value(manifest: RunManifest, metric: str) -> float:
    return float(getattr(manifest, metric))


def compare_history(
    manifests: Sequence[RunManifest],
    baseline_manifests: Optional[Sequence[RunManifest]] = None,
    k: int = DEFAULT_K,
    tolerance: float = DEFAULT_TOLERANCE,
    noise_floor: float = DEFAULT_NOISE_FLOOR,
    metric: str = "engine_seconds",
) -> List[Verdict]:
    """Produce one verdict per (bench, smoke, traced) series in ``manifests``.

    With ``baseline_manifests`` (e.g. the committed CI baseline), the
    baseline for each series is the median of the *last* ``k`` matching
    runs in that file; otherwise it is the median of up to ``k`` runs
    preceding the current one in the same history.
    """
    if metric not in _METRICS:
        raise ReproError(
            f"unknown comparison metric {metric!r}; choose from "
            + ", ".join(_METRICS)
        )
    if k < 1:
        raise ReproError(f"k must be >= 1, got {k}")
    baseline_series = (
        _series(baseline_manifests) if baseline_manifests is not None else None
    )
    verdicts: List[Verdict] = []
    for key, runs in sorted(_series(manifests).items()):
        bench, smoke, traced = key
        current = _metric_value(runs[-1], metric)
        if baseline_series is not None:
            window = baseline_series.get(key, [])[-k:]
        else:
            window = runs[:-1][-k:]
        if not window:
            verdicts.append(
                Verdict(
                    bench=bench,
                    smoke=smoke,
                    traced=traced,
                    status="new",
                    metric=metric,
                    current=current,
                    baseline=None,
                    baseline_runs=0,
                    ratio=None,
                    delta_seconds=None,
                )
            )
            continue
        baseline = statistics.median(_metric_value(m, metric) for m in window)
        delta = current - baseline
        ratio = current / baseline if baseline > 0 else float("inf")
        if delta > noise_floor and ratio > 1.0 + tolerance:
            status = "regression"
        elif -delta > noise_floor and (
            baseline > 0 and ratio < 1.0 - tolerance
        ):
            status = "improvement"
        else:
            status = "within-noise"
        verdicts.append(
            Verdict(
                bench=bench,
                smoke=smoke,
                traced=traced,
                status=status,
                metric=metric,
                current=current,
                baseline=baseline,
                baseline_runs=len(window),
                ratio=ratio,
                delta_seconds=delta,
            )
        )
    return verdicts


def render_verdicts(verdicts: Sequence[Verdict]) -> str:
    """Human-readable comparison table, regressions first."""
    if not verdicts:
        return "perf compare: history is empty (run `repro perf run` first)"
    order = {"regression": 0, "improvement": 1, "within-noise": 2, "new": 3}
    ordered = sorted(
        verdicts,
        key=lambda v: (order.get(v.status, 9), v.bench, v.smoke, v.traced),
    )
    lines = [v.describe() for v in ordered]
    regressions = sum(v.is_regression for v in verdicts)
    lines.append(
        f"-- {len(verdicts)} series compared, {regressions} regression(s)"
    )
    return "\n".join(lines)
