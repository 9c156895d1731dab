"""One run context: every instrument a run reports through, in one handle.

A :class:`RunContext` is what the engines, the campaign runners and the
figure drivers take as ``context=``.  It bundles

- ``metrics`` — the deterministic :class:`~repro.obs.metrics.MetricsRegistry`;
- ``spans`` — the wall-clock :class:`~repro.obs.spans.Tracer`;
- ``monitor`` — the online :class:`~repro.obs.monitor.LoadMonitor`;
- ``trace`` — the request :class:`~repro.obs.trace.FlightRecorder`;
- ``workers`` — trial-execution processes (``1`` serial, ``0`` one per
  CPU), which never change a result.

Each instrument defaults to its shared null singleton, so
:data:`NULL_CONTEXT` records nothing and costs one ``enabled`` check
per use.  ``None`` is accepted for any instrument and means the same.

Per-trial collection is written once, here.  A campaign runs each trial
under :meth:`RunContext.for_trial` (a fresh registry, monitor and
recorder built from the campaign's configs, inside the worker when
parallel), ships :meth:`RunContext.snapshot` back, and folds it into
the campaign context with :meth:`RunContext.merge_trial` strictly in
trial order — which is what keeps metrics, monitor output and traces
identical for every worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..exceptions import ConfigurationError
from .metrics import NULL_REGISTRY, MetricsRegistry, as_registry
from .monitor import NULL_MONITOR, LoadMonitor, as_monitor
from .spans import NULL_TRACER, Tracer, as_tracer
from .trace import NULL_RECORDER, FlightRecorder, as_trace

__all__ = ["RunContext", "NULL_CONTEXT"]

#: Per-trial snapshot: (metrics, monitor, trace); ``None`` where off.
TrialSnapshot = Tuple[Optional[dict], Optional[dict], Optional[dict]]


@dataclass(frozen=True)
class RunContext:
    """The instruments and worker count of one run (see module docs)."""

    metrics: MetricsRegistry = NULL_REGISTRY
    spans: Tracer = NULL_TRACER
    monitor: LoadMonitor = NULL_MONITOR
    trace: FlightRecorder = NULL_RECORDER
    workers: int = 1

    def __post_init__(self) -> None:
        for name, normalise in (
            ("metrics", as_registry),
            ("spans", as_tracer),
            ("monitor", as_monitor),
            ("trace", as_trace),
        ):
            object.__setattr__(self, name, normalise(getattr(self, name)))
        if self.workers < 0:
            raise ConfigurationError(
                f"workers must be >= 0 (0 = all CPUs), got {self.workers}"
            )

    @property
    def collecting(self) -> bool:
        """Whether trials record anything that must merge back."""
        return self.metrics.enabled or self.monitor.enabled or self.trace.enabled

    def for_trial(self, seed: int) -> "RunContext":
        """A fresh context for one trial of a campaign run under this one.

        The registry is new; the monitor is new (from this monitor's
        config, publishing into the trial's registry); the recorder is
        new (from this recorder's config, keyed on the campaign ``seed``
        so its per-trial hash samplers match the serial loop's).  Spans
        stay off: they are wall-clock and process-local.
        """
        registry = MetricsRegistry() if self.metrics.enabled else NULL_REGISTRY
        return RunContext(
            metrics=registry,
            monitor=(
                LoadMonitor(self.monitor.config, metrics=registry)
                if self.monitor.enabled else NULL_MONITOR
            ),
            trace=(
                FlightRecorder(self.trace.config, seed=seed)
                if self.trace.enabled else NULL_RECORDER
            ),
        )

    def snapshot(self) -> TrialSnapshot:
        """Plain-data state of every enabled instrument (picklable)."""
        return (
            self.metrics.snapshot() if self.metrics.enabled else None,
            self.monitor.snapshot() if self.monitor.enabled else None,
            self.trace.snapshot() if self.trace.enabled else None,
        )

    def merge_trial(self, snapshot: TrialSnapshot) -> None:
        """Fold one trial's :meth:`snapshot` into this context."""
        metrics, monitor, trace = snapshot
        if metrics is not None:
            self.metrics.merge_snapshot(metrics)
        if monitor is not None:
            self.monitor.merge_trial(monitor)
        if trace is not None:
            self.trace.merge_trial(trace)


#: Process-wide shared context with every instrument off.
NULL_CONTEXT = RunContext()
