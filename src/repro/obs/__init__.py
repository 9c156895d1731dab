"""Observability: deterministic metrics, phase spans, monitoring, tracing.

The instrumentation surface every layer of the reproduction reports
through (see ``docs/OBSERVABILITY.md``):

- :class:`RunContext` — **the one handle**: engines, campaign runners
  and figure drivers take a single ``context=`` holding the four
  instruments below plus the worker count; per-trial collection and the
  trial-order merge live on it (:mod:`repro.obs.context`);
- :class:`MetricsRegistry` — counters, gauges and fixed-bucket log-scale
  histograms; values are deterministic (identical across worker counts)
  and registries merge exactly;
- :class:`Tracer` — nestable wall-clock spans for the simulation phases
  (workload gen -> cache -> partition -> allocation -> report;
  :mod:`repro.obs.spans`);
- :func:`export_json` / :func:`write_json` / :func:`to_prometheus` —
  one source of truth, two export formats;
- :class:`LoadMonitor` — **online** attack monitoring: simulated-clock
  windows read from each run's columns, the attack-gain estimate with
  exact gain and node-load quantiles, a structured JSONL event log
  (:mod:`repro.obs.events`), rule-based alerting
  (:mod:`repro.obs.alerts`) and terminal/HTML dashboards
  (:mod:`repro.obs.dashboard`);
- :class:`FlightRecorder` — **causal request tracing**: a hash-sampled
  (RNG-free) bounded ring of per-request records
  (:mod:`repro.obs.trace`) whose trials feed a per-prefix/per-client
  attack-attribution engine (:mod:`repro.obs.attribution`) with ranked
  suspects, the ``attribution-concentration`` alert and the forensic
  timeline dashboards (:mod:`repro.obs.forensics`).

Everything defaults off: :data:`NULL_CONTEXT` holds the shared no-op
singletons (``NULL_REGISTRY``, ``NULL_TRACER``, ``NULL_MONITOR``,
``NULL_RECORDER``), which record nothing and allocate nothing.  Attach
an instrument by building ``RunContext(metrics=MetricsRegistry(), ...)``
with only the ones wanted.
"""

from .metrics import (
    DEFAULT_BUCKETS,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    as_registry,
)
from .spans import NULL_TRACER, NullTracer, Span, Tracer, as_tracer
from .export import export_json, to_prometheus, write_json
from .sketch import SpaceSaving
from .events import SCHEMA_VERSION, EventLog
from .alerts import BUILTIN_RULES, AlertEngine, AlertRule
from .monitor import (
    NULL_MONITOR,
    LoadMonitor,
    MonitorConfig,
    NullMonitor,
    as_monitor,
)
from .attribution import Attribution, attribute
from .trace import (
    NULL_RECORDER,
    TRACE_SCHEMA_VERSION,
    FlightRecorder,
    HashSampler,
    NullRecorder,
    StrideSampler,
    TraceConfig,
    as_trace,
)
from .context import NULL_CONTEXT, RunContext
from .dashboard import render_html, render_text, write_html
from .forensics import (
    path_breakdown,
    render_forensics_html,
    render_forensics_text,
    timeline_bins,
    write_forensics_html,
)

__all__ = [
    "RunContext",
    "NULL_CONTEXT",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "as_registry",
    "DEFAULT_BUCKETS",
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "as_tracer",
    "export_json",
    "write_json",
    "to_prometheus",
    "SpaceSaving",
    "SCHEMA_VERSION",
    "EventLog",
    "AlertRule",
    "AlertEngine",
    "BUILTIN_RULES",
    "MonitorConfig",
    "LoadMonitor",
    "NullMonitor",
    "NULL_MONITOR",
    "as_monitor",
    "TRACE_SCHEMA_VERSION",
    "TraceConfig",
    "HashSampler",
    "StrideSampler",
    "FlightRecorder",
    "NullRecorder",
    "NULL_RECORDER",
    "as_trace",
    "Attribution",
    "attribute",
    "render_text",
    "render_html",
    "write_html",
    "path_breakdown",
    "timeline_bins",
    "render_forensics_text",
    "render_forensics_html",
    "write_forensics_html",
]
