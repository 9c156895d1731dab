"""Forensic views over a :class:`~repro.obs.trace.FlightRecorder`.

The flight recorder's trace ring plus the attribution engine's ranked
suspects answer the post-incident questions — *who* (client/prefix
rankings), *what* (per-request causal paths: hit layer/shard or backend
node, wait, service, drop) and *when* (the traced-request timeline with
``attribution-concentration`` alert markers).  Three renderers, all
pure functions of the recorder state, so a seeded run's forensics
output is deterministic across engines and worker counts:

- :func:`render_forensics_text` — terminal panel: trace header, the
  ranked suspects tables, the per-layer/status path breakdown and the
  alert roll.
- :func:`render_forensics_html` — standalone single-file HTML page
  (same skeleton as :mod:`repro.obs.dashboard`): the suspect tables,
  the path breakdown and an inline SVG timeline of traced requests per
  attribution window with alert-aligned markers.
- :func:`timeline_bins` — the timeline aggregation itself (exposed for
  tests and the offline ``repro forensics`` path).

Everything here also works on *recomputed* state: the recorder that
:meth:`FlightRecorder.from_export` rebuilds from a trace file renders
the same dashboard as the live one (``repro forensics``).
"""

from __future__ import annotations

import html
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from .dashboard import fmt, html_page, html_table, svg_sparkline

__all__ = [
    "path_breakdown",
    "timeline_bins",
    "render_forensics_text",
    "render_forensics_html",
    "write_forensics_html",
]


def path_breakdown(records: Sequence[dict]) -> List[dict]:
    """Aggregate traced causal paths into per-(status, layer) rows.

    One row per distinct request fate: front-end hits grouped by cache
    layer (flat hits have no layer and report as ``front-end``), backend
    dispatches by outcome (``served`` / ``dropped`` / ``lost`` /
    ``unavailable``) with mean wait/service where defined.  Rows sort by
    request count (desc, ties by label) — plain data for both renderers.
    """
    groups: Dict[str, dict] = {}
    for record in records:
        if record["hit"]:
            layer = record.get("layer")
            label = "hit front-end" if layer is None else f"hit layer {layer}"
        else:
            label = record["status"]
        slot = groups.get(label)
        if slot is None:
            slot = groups[label] = {
                "path": label, "requests": 0, "wait_sum": 0.0,
                "service_sum": 0.0, "timed": 0, "shards": set(),
            }
        slot["requests"] += 1
        if record.get("shard") is not None:
            slot["shards"].add(record["shard"])
        if record.get("wait") is not None:
            slot["wait_sum"] += record["wait"]
            slot["service_sum"] += record["service"] or 0.0
            slot["timed"] += 1
    total = len(records)
    rows = []
    for slot in groups.values():
        timed = slot["timed"]
        rows.append({
            "path": slot["path"],
            "requests": slot["requests"],
            "share": slot["requests"] / total if total else None,
            "shards": len(slot["shards"]) or None,
            "mean_wait": slot["wait_sum"] / timed if timed else None,
            "mean_service": slot["service_sum"] / timed if timed else None,
        })
    rows.sort(key=lambda row: (-row["requests"], row["path"]))
    return rows


def timeline_bins(
    records: Sequence[dict],
    alerts: Sequence[dict] = (),
    window: float = 0.1,
) -> List[dict]:
    """Traced requests per ``(trial, window)`` bin, with alert flags.

    Bins are the attribution engine's tumbling windows, so alert
    records (which carry ``trial`` and ``index``) align exactly; each
    bin reports its traced request count, backend share and whether a
    concentration alert fired in it.
    """
    bins: Dict[tuple, dict] = {}
    for record in records:
        key = (record["trial"], int(record["t"] // window))
        slot = bins.get(key)
        if slot is None:
            slot = bins[key] = {
                "trial": key[0], "index": key[1],
                "t_end": (key[1] + 1) * window,
                "requests": 0, "backend": 0, "alert": False,
            }
        slot["requests"] += 1
        slot["backend"] += not record["hit"]
    for alert in alerts:
        key = (alert.get("trial"), alert.get("window", alert.get("index")))
        if key in bins:
            bins[key]["alert"] = True
    return [bins[key] for key in sorted(bins)]


def _svg_timeline(bins: List[dict], width: int = 720, height: int = 160) -> str:
    """Inline SVG of the traced-request timeline with alert markers.

    One bar per bin (height = traced requests, darker segment = backend
    share); bins where an ``attribution-concentration`` alert fired get
    a red marker line — the "when did it turn into an attack" view.
    """
    if not bins:
        return "<p>(no traced requests)</p>"
    pad = 24
    peak = max(slot["requests"] for slot in bins) or 1
    step = (width - 2 * pad) / len(bins)
    bar = max(step - 1.0, 0.5)
    parts = [
        f'<svg viewBox="0 0 {width} {height}" width="{width}" '
        f'height="{height}" role="img" '
        'style="background:#fafafa;border:1px solid #ddd">',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
        f'y2="{height - pad}" stroke="#888"/>',
    ]
    for i, slot in enumerate(bins):
        x = pad + i * step
        total_h = slot["requests"] / peak * (height - 2 * pad)
        backend_h = (
            slot["backend"] / peak * (height - 2 * pad)
            if slot["requests"] else 0.0
        )
        y = height - pad - total_h
        parts.append(
            f'<rect x="{x:.1f}" y="{y:.1f}" width="{bar:.1f}" '
            f'height="{total_h:.1f}" fill="#aed6f1"/>'
        )
        if backend_h:
            parts.append(
                f'<rect x="{x:.1f}" y="{height - pad - backend_h:.1f}" '
                f'width="{bar:.1f}" height="{backend_h:.1f}" fill="#2980b9"/>'
            )
        if slot["alert"]:
            parts.append(
                f'<line x1="{x + bar / 2:.1f}" y1="{pad}" '
                f'x2="{x + bar / 2:.1f}" y2="{height - pad}" '
                'stroke="#c0392b" stroke-width="1.5" stroke-dasharray="3 2"/>'
            )
    parts.append(
        f'<text x="{pad}" y="{pad - 8}" font-size="11" fill="#2980b9">'
        "traced requests per window (dark = backend)</text>"
    )
    parts.append(
        f'<text x="{pad + 280}" y="{pad - 8}" font-size="11" fill="#c0392b">'
        "| concentration alert</text>"
    )
    parts.append("</svg>")
    return "".join(parts)


def _suspect_lines(suspects: Optional[dict], last: int) -> List[str]:
    lines: List[str] = []
    if not suspects or not suspects.get("samples"):
        lines.append("suspects: (attribution disabled or no samples)")
        return lines
    lines.append(f"suspects over {suspects['samples']} traced request(s):")
    for label, rows in (
        ("prefix", suspects["prefixes"]),
        ("client", suspects["clients"]),
    ):
        lines.append(
            f"  {'#':>2} {label:>7} {'req':>7} {'share':>7} "
            f"{'backend%':>9} {'keys':>6} {'entropy':>8}"
        )
        for rank, row in enumerate(rows[:last], 1):
            backend = row["backend_share"]
            lines.append(
                f"  {rank:>2} {fmt(row[label]):>7} {row['requests']:>7} "
                f"{row['share']:>7.3f} "
                f"{fmt(100 * backend, 3) if backend is not None else '-':>9} "
                f"{row['distinct_keys']:>6} {fmt(row['entropy']):>8}"
            )
    if suspects["keys"]:
        hot = ", ".join(
            f"{row['key']}x{row['count']}" for row in suspects["keys"][:last]
        )
        lines.append(f"  hot keys (space-saving): {hot}")
    return lines


def render_forensics_text(recorder, last: int = 8) -> str:
    """Render the recorder's forensic state as a terminal panel."""
    config = recorder.config
    suspects = recorder.suspects()
    alerts = list(recorder.alerts)
    records = recorder.records
    lines: List[str] = []
    lines.append("attack forensics (flight recorder)")
    lines.append("=" * 70)
    lines.append(
        f"trace:  sampler={config.sampler} sample={config.sample:g} "
        f"buckets={config.prefix_buckets} window={config.window:g}s"
    )
    lines.append(
        f"state:  seen={recorder.seen}  sampled={recorder.sampled}  "
        f"retained={len(records)}  evicted={recorder.evicted}  "
        f"alerts={len(alerts)}"
    )
    lines.append("")
    lines.extend(_suspect_lines(suspects, last))
    rows = path_breakdown(records)
    if rows:
        lines.append("")
        lines.append("causal path breakdown:")
        lines.append(
            f"  {'path':<16} {'req':>7} {'share':>7} {'shards':>7} "
            f"{'wait(ms)':>9} {'svc(ms)':>8}"
        )
        for row in rows:
            wait = row["mean_wait"]
            service = row["mean_service"]
            lines.append(
                f"  {row['path']:<16} {row['requests']:>7} "
                f"{row['share']:>7.3f} {fmt(row['shards']):>7} "
                f"{fmt(1e3 * wait, 4) if wait is not None else '-':>9} "
                f"{fmt(1e3 * service, 4) if service is not None else '-':>8}"
            )
    if alerts:
        lines.append("")
        lines.append(f"attribution alerts ({len(alerts)}):")
        for alert in alerts[-last:]:
            lines.append(
                f"  [{alert['rule']}] trial={fmt(alert.get('trial'))} "
                f"window={fmt(alert.get('window'))} "
                f"prefix={fmt(alert.get('prefix'))} "
                f"share={fmt(alert.get('value'))} > "
                f"{fmt(alert.get('threshold'))}"
            )
    return "\n".join(lines)


def render_forensics_html(
    recorder,
    title: str = "Attack forensics",
    monitor=None,
) -> str:
    """Render the forensic dashboard as a standalone HTML page.

    With ``monitor`` attached, the per-window gain series rides along
    as a sparkline so the suspect timeline reads against the damage
    curve it explains.
    """
    config = recorder.config
    suspects = recorder.suspects()
    alerts = list(recorder.alerts)
    records = recorder.records
    bins = timeline_bins(records, alerts, window=config.window)
    body = [
        f'<p class="kv">sampler={html.escape(config.sampler)} '
        f"sample={config.sample:g} buckets={config.prefix_buckets} "
        f"window={config.window:g}s — seen={recorder.seen} "
        f"sampled={recorder.sampled} retained={len(records)} "
        f"evicted={recorder.evicted} alerts={len(alerts)}</p>",
        "<h2>Traced-request timeline (alert-aligned)</h2>",
        _svg_timeline(bins),
    ]
    if monitor is not None and getattr(monitor, "windows", None):
        gains = [
            w.get("running_gain", w.get("gain")) for w in monitor.windows
        ]
        body.append(
            '<p class="kv">running gain per monitor window: '
            + svg_sparkline(gains, stroke="#c0392b")
            + "</p>"
        )
    if suspects and suspects.get("samples"):
        body.append("<h2>Suspect prefixes</h2>")
        body.append(html_table(
            suspects["prefixes"],
            ["prefix", "requests", "share", "backend", "backend_share",
             "distinct_keys", "entropy"],
        ))
        body.append("<h2>Suspect clients</h2>")
        body.append(html_table(
            suspects["clients"],
            ["client", "requests", "share", "backend", "backend_share",
             "distinct_keys", "entropy"],
        ))
        body.append("<h2>Hot keys (space-saving sketch)</h2>")
        body.append(html_table(
            suspects["keys"], ["key", "count", "error", "share"]
        ))
    else:
        body.append("<p>(attribution disabled or no samples)</p>")
    body.append("<h2>Causal path breakdown</h2>")
    body.append(html_table(
        path_breakdown(records),
        ["path", "requests", "share", "shards", "mean_wait", "mean_service"],
    ))
    body.append("<h2>Attribution alerts</h2>")
    body.append(html_table(
        [
            {
                "rule": a.get("rule"),
                "trial": a.get("trial"),
                "window": a.get("window"),
                "prefix": a.get("prefix"),
                "value": a.get("value"),
                "threshold": a.get("threshold"),
            }
            for a in alerts
        ],
        ["rule", "trial", "window", "prefix", "value", "threshold"],
    ))
    return html_page(title, body)


def write_forensics_html(
    recorder,
    path: Union[str, Path],
    title: Optional[str] = None,
    monitor=None,
) -> Path:
    """Write :func:`render_forensics_html` to ``path``; returns the path."""
    path = Path(path)
    path.write_text(
        render_forensics_html(
            recorder, title=title or "Attack forensics", monitor=monitor
        ),
        encoding="utf-8",
    )
    return path
