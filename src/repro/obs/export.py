"""Exporters: registry + tracer -> JSON document or Prometheus text.

Two formats, one source of truth:

- :func:`export_json` emits a single JSON-able dict — counters, gauges,
  histograms (with bucket detail *and* the p50/p95/p99 trio) and the
  tracer's span aggregates — for dashboards, diffing and provenance
  artifacts.  :func:`write_json` persists it.
- :func:`to_prometheus` renders the Prometheus text exposition format
  (``# TYPE`` headers, ``_bucket``/``_sum``/``_count`` histogram series,
  span aggregates as summary-style quantile series), so a scrape
  endpoint or node_exporter textfile collector can serve the same data.

Both outputs are deterministically ordered (sorted by metric name, then
labels), so exports of identical registries are byte-identical.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Mapping, Optional, Union

from .metrics import MetricsRegistry
from .spans import Tracer

__all__ = ["export_json", "write_json", "to_prometheus"]


def export_json(
    metrics: Optional[MetricsRegistry] = None,
    tracer: Optional[Tracer] = None,
    extra: Optional[Mapping[str, object]] = None,
) -> dict:
    """Bundle registry and tracer state into one JSON-able document."""
    document: dict = {"version": 1}
    if extra:
        document.update(dict(extra))
    if metrics is not None:
        document["metrics"] = {
            "counters": [
                {"name": c.name, "labels": dict(c.labels), "value": c.value}
                for c in metrics.counters()
            ],
            "gauges": [
                {"name": g.name, "labels": dict(g.labels), "value": g.value}
                for g in metrics.gauges()
            ],
            "histograms": [
                {
                    "name": h.name,
                    "labels": dict(h.labels),
                    "count": h.count,
                    "sum": h.sum,
                    "min": h.min,
                    "max": h.max,
                    "bounds": list(h.bounds),
                    "counts": list(h.counts),
                    **h.percentiles(),
                }
                for h in metrics.histograms()
            ],
        }
    if tracer is not None:
        document["trace"] = tracer.to_dict()
    return document


def write_json(
    path: Union[str, Path],
    metrics: Optional[MetricsRegistry] = None,
    tracer: Optional[Tracer] = None,
    extra: Optional[Mapping[str, object]] = None,
) -> Path:
    """Write :func:`export_json` output to ``path`` (created/overwritten)."""
    path = Path(path)
    document = export_json(metrics=metrics, tracer=tracer, extra=extra)
    path.write_text(
        json.dumps(document, indent=2, sort_keys=True, allow_nan=False, default=_json_default)
        + "\n",
        encoding="utf-8",
    )
    return path


def _json_default(value: object) -> object:
    """Last-resort JSON coercion (numpy scalars and similar)."""
    for attr in ("item",):  # numpy scalar protocol
        method = getattr(value, attr, None)
        if callable(method):
            return method()
    raise TypeError(f"not JSON serializable: {value!r}")  # pragma: no cover


def _sanitize(name: str) -> str:
    """Coerce a metric or label name into the Prometheus charset."""
    cleaned = "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in name)
    if not cleaned or cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return cleaned


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _labels_text(labels, extra: Optional[Mapping[str, str]] = None) -> str:
    items = [(_sanitize(k), str(v)) for k, v in labels]
    if extra:
        items.extend((_sanitize(k), str(v)) for k, v in extra.items())
    if not items:
        return ""
    body = ",".join(f'{k}="{_escape(v)}"' for k, v in sorted(items))
    return "{" + body + "}"


def _format(value: float) -> str:
    if value != value:  # nan
        return "NaN"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def to_prometheus(
    metrics: Optional[MetricsRegistry] = None,
    tracer: Optional[Tracer] = None,
    prefix: str = "repro_",
) -> str:
    """Render the Prometheus text exposition format (version 0.0.4)."""
    lines = []
    typed = set()

    def header(name: str, kind: str) -> None:
        if name not in typed:
            lines.append(f"# TYPE {name} {kind}")
            typed.add(name)

    if metrics is not None:
        for counter in metrics.counters():
            name = prefix + _sanitize(counter.name)
            header(name, "counter")
            lines.append(f"{name}{_labels_text(counter.labels)} {_format(counter.value)}")
        for gauge in metrics.gauges():
            name = prefix + _sanitize(gauge.name)
            header(name, "gauge")
            lines.append(f"{name}{_labels_text(gauge.labels)} {_format(gauge.value)}")
        for histogram in metrics.histograms():
            name = prefix + _sanitize(histogram.name)
            header(name, "histogram")
            cumulative = 0
            for bound, count in zip(histogram.bounds, histogram.counts):
                cumulative += count
                lines.append(
                    f"{name}_bucket{_labels_text(histogram.labels, {'le': _format(bound)})} "
                    f"{cumulative}"
                )
            cumulative += histogram.counts[-1]
            lines.append(
                f"{name}_bucket{_labels_text(histogram.labels, {'le': '+Inf'})} {cumulative}"
            )
            lines.append(
                f"{name}_sum{_labels_text(histogram.labels)} {_format(histogram.sum)}"
            )
            lines.append(f"{name}_count{_labels_text(histogram.labels)} {histogram.count}")
    if tracer is not None:
        name = prefix + "span_duration_seconds"
        aggregates = tracer.aggregates()
        if aggregates:
            header(name, "summary")
        for path, stats in aggregates.items():
            for quantile, key in (("0.5", "p50"), ("0.95", "p95"), ("0.99", "p99")):
                lines.append(
                    f"{name}{_labels_text((), {'span': path, 'quantile': quantile})} "
                    f"{_format(stats[key + '_seconds'])}"
                )
            lines.append(
                f"{name}_sum{_labels_text((), {'span': path})} "
                f"{_format(stats['total_seconds'])}"
            )
            lines.append(f"{name}_count{_labels_text((), {'span': path})} {stats['count']}")
    return "\n".join(lines) + ("\n" if lines else "")
