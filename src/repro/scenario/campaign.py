"""Execute scenarios and sweep campaigns.

:func:`run_scenario` takes one validated :class:`ScenarioSpec` through
its engine; :func:`run_campaign` expands a :class:`CampaignSpec`'s
sweep grid and runs every concrete scenario, assembling the
schema-versioned manifest (:mod:`repro.scenario.manifest`) and
optionally the comparative HTML report (:mod:`repro.scenario.report`).

Scenarios run sequentially — each engine already parallelises its own
trials through :class:`repro.sim.parallel.ParallelExecutor`, and
nesting process pools would oversubscribe — and results are
bit-identical for every worker count, which the golden determinism
suite pins per fixture.

``REPRO_BENCH_SMOKE=1`` caps every scenario at 3 trials × 2000 queries,
the same switch that shrinks ``benchmarks/bench_obs.py``, so CI smoke
jobs finish in seconds regardless of what a spec asks for.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import List, Optional, Tuple, Union

from ..obs.context import NULL_CONTEXT, RunContext
from ..obs.trace import FlightRecorder
from .build import BuildContext, build_component, engine_entry
from .manifest import campaign_manifest, write_manifest
from .report import write_campaign_html
from .spec import CampaignSpec, ScenarioSpec

__all__ = [
    "ScenarioOutcome",
    "CampaignResult",
    "run_scenario",
    "run_campaign",
    "smoke_mode",
]

#: Smoke-mode caps (trials, queries) under ``REPRO_BENCH_SMOKE=1``.
_SMOKE_TRIALS = 3
_SMOKE_QUERIES = 2_000


def smoke_mode() -> bool:
    """Whether ``REPRO_BENCH_SMOKE=1`` asks for a seconds-scale run."""
    return os.environ.get("REPRO_BENCH_SMOKE", "") == "1"


def _apply_smoke(spec: ScenarioSpec) -> ScenarioSpec:
    if not smoke_mode():
        return spec
    return replace(
        spec,
        trials=min(spec.trials, _SMOKE_TRIALS),
        queries=min(spec.queries, _SMOKE_QUERIES),
    )


@dataclass(frozen=True)
class ScenarioOutcome:
    """One executed scenario.

    ``stats`` is the engine's plain-data summary (what manifests and
    golden fixtures hold); ``result`` the engine's native aggregate
    (:class:`~repro.types.LoadReport` or
    :class:`~repro.sim.batch.EventCampaign`) for callers that need the
    full per-trial series.  ``trace`` is the merged
    :class:`~repro.obs.trace.FlightRecorder` when the spec carried a
    ``trace:`` section (``None`` otherwise) — the CLI writes its JSONL
    export and renders the forensics dashboard from it.
    """

    spec: ScenarioSpec
    stats: dict
    result: object
    trace: object = None


def _build_trace(spec: ScenarioSpec, ctx: BuildContext):
    """The spec's ``trace:`` section as an enabled flight recorder.

    The section resolves through the ``sampler`` namespace (its builder
    returns a :class:`~repro.obs.trace.TraceConfig`); the recorder is
    seeded with the spec seed so per-trial hash samplers are
    reproducible across engines and worker counts.
    """
    if spec.trace is None:
        return None
    config = build_component("sampler", spec.trace, ctx, path="trace")
    return FlightRecorder(config, seed=spec.seed)


def run_scenario(
    spec: ScenarioSpec,
    workers: Optional[int] = None,
    context: Optional[RunContext] = None,
) -> ScenarioOutcome:
    """Run one scenario through its engine.

    ``context`` carries the caller's instruments (metrics, spans,
    monitor; the CLI's flags).  The spec adds its own on top: its
    worker count (``workers`` overrides it: the CLI flag; the results
    are identical either way, only wall-clock changes) and the flight
    recorder of its ``trace:`` section.  The engine runs under the
    result.
    """
    spec = _apply_smoke(spec)
    entry = engine_entry(spec)
    ctx = BuildContext(params=spec.system, seed=spec.seed)
    context = replace(
        NULL_CONTEXT if context is None else context,
        trace=_build_trace(spec, ctx),
        workers=spec.workers if workers is None else workers,
    )
    stats, result = entry.factory(spec, ctx, context, **spec.engine.params)
    trace = context.trace if context.trace.enabled else None
    return ScenarioOutcome(spec=spec, stats=stats, result=result, trace=trace)


@dataclass(frozen=True)
class CampaignResult:
    """One executed campaign: the grid's outcomes plus the manifest."""

    campaign: CampaignSpec
    outcomes: Tuple[ScenarioOutcome, ...]
    manifest: dict
    manifest_path: Optional[Path] = None
    report_path: Optional[Path] = None

    @property
    def scenarios(self) -> int:
        """Number of concrete scenarios executed."""
        return len(self.outcomes)

    def describe(self) -> str:
        """Multi-line campaign summary for terminals."""
        shape = self.manifest["grid_shape"]
        grid = " x ".join(str(k) for k in shape) if shape else "1"
        lines = [
            f"campaign {self.campaign.name}: {self.scenarios} scenario(s), "
            f"grid {grid}"
        ]
        for outcome in self.outcomes:
            stats = outcome.stats
            worst = stats.get("worst_case")
            worst_part = f" worst_case={worst:.4g}" if worst is not None else ""
            lines.append(
                f"  {outcome.spec.name}: engine={stats.get('engine')}"
                f"{worst_part}"
            )
        if self.manifest_path is not None:
            lines.append(f"manifest: {self.manifest_path}")
        if self.report_path is not None:
            lines.append(f"report: {self.report_path}")
        return "\n".join(lines)


def run_campaign(
    campaign: CampaignSpec,
    workers: Optional[int] = None,
    out_dir: Optional[Union[str, Path]] = None,
    progress=None,
) -> CampaignResult:
    """Expand and execute a sweep campaign.

    With ``out_dir`` set, the manifest (``<name>.manifest.json``) and
    HTML report (``<name>.html``) are written there.  ``progress`` is an
    optional ``callable(index, total, spec)`` hook the CLI uses for
    per-scenario lines.
    """
    scenarios = campaign.expand()
    outcomes: List[ScenarioOutcome] = []
    for i, spec in enumerate(scenarios):
        if progress is not None:
            progress(i, len(scenarios), spec)
        outcomes.append(run_scenario(spec, workers=workers))
    effective_workers = (
        workers if workers is not None else campaign.base.workers
    )
    manifest = campaign_manifest(
        campaign,
        [outcome.spec for outcome in outcomes],
        [outcome.stats for outcome in outcomes],
        workers=effective_workers,
    )
    manifest_path = report_path = None
    if out_dir is not None:
        out_dir = Path(out_dir)
        safe = campaign.name.replace("/", "_")
        manifest_path = write_manifest(
            manifest, out_dir / f"{safe}.manifest.json"
        )
        report_path = write_campaign_html(manifest, out_dir / f"{safe}.html")
    return CampaignResult(
        campaign=campaign,
        outcomes=tuple(outcomes),
        manifest=manifest,
        manifest_path=manifest_path,
        report_path=report_path,
    )
