"""Dashboards over a :class:`~repro.obs.monitor.LoadMonitor`.

Two renderers, both pure functions of the monitor's accumulated
records (hence deterministic for a seeded run):

- :func:`render_text` — a fixed-width terminal panel: config header,
  the last windows as a table (time, requests, hit ratio, entropy,
  running gain vs bound, alert flags), the alert roll, the P²
  quantile summaries and, for cache-tree runs, each run's per-layer
  shard load against the DistCache bound.
- :func:`render_html` — a standalone single-file HTML page with an
  inline SVG chart of running gain against the Theorem-2 bound per
  window plus the same tables; no external assets, opens anywhere.
"""

from __future__ import annotations

import html
from pathlib import Path
from typing import List, Optional, Sequence, Union

__all__ = [
    "render_text",
    "render_html",
    "write_html",
    "fmt",
    "html_table",
    "html_page",
    "svg_sparkline",
]

#: Shared stylesheet for every single-file dashboard/report page.
PAGE_STYLE = (
    "body{font-family:ui-monospace,Menlo,Consolas,monospace;margin:2rem;"
    "color:#222;max-width:64rem}"
    "table{border-collapse:collapse;margin:0.5rem 0 1.5rem}"
    "th,td{border:1px solid #ccc;padding:0.2rem 0.6rem;font-size:0.85rem;"
    "text-align:right}"
    "th{background:#f0f0f0}"
    "h1{font-size:1.3rem}h2{font-size:1.05rem;margin-top:1.5rem}"
    ".kv{color:#555}"
)


def fmt(value, digits: int = 4) -> str:
    """Compact numeric formatting with a dash for missing values."""
    if value is None:
        return "-"
    if isinstance(value, float):
        if value != value:  # NaN
            return "-"
        return f"{value:.{digits}g}"
    return str(value)


def html_table(rows: List[dict], columns: List[str]) -> str:
    """Render dict rows as a plain HTML table (escaped, ``-`` for gaps)."""
    if not rows:
        return "<p>(none)</p>"
    head = "".join(f"<th>{html.escape(c)}</th>" for c in columns)
    body = []
    for row in rows:
        cells = "".join(f"<td>{html.escape(fmt(row.get(c)))}</td>" for c in columns)
        body.append(f"<tr>{cells}</tr>")
    return (
        '<table><thead><tr>' + head + "</tr></thead><tbody>"
        + "".join(body) + "</tbody></table>"
    )


_html_table = html_table


def html_page(title: str, body_parts: Sequence[str]) -> str:
    """Wrap body fragments in the standalone single-file page skeleton."""
    parts = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        f"<title>{html.escape(title)}</title>",
        "<style>",
        PAGE_STYLE,
        "</style></head><body>",
        f"<h1>{html.escape(title)}</h1>",
    ]
    parts.extend(body_parts)
    parts.append("</body></html>")
    return "\n".join(parts)


def svg_sparkline(
    values: Sequence[float],
    width: int = 240,
    height: int = 40,
    stroke: str = "#2980b9",
) -> str:
    """Inline SVG sparkline over a numeric series (no axes, no assets).

    Scales the series into the box; a single point renders as a flat
    line so trajectories of length one are still visible.
    """
    points = [float(v) for v in values if v is not None and v == v]
    if not points:
        return "<span>(no data)</span>"
    if len(points) == 1:
        points = points * 2
    lo, hi = min(points), max(points)
    span = (hi - lo) or 1.0
    pad = 3
    x_step = (width - 2 * pad) / (len(points) - 1)
    coords = " ".join(
        f"{pad + i * x_step:.1f},"
        f"{height - pad - (v - lo) / span * (height - 2 * pad):.1f}"
        for i, v in enumerate(points)
    )
    return (
        f'<svg viewBox="0 0 {width} {height}" width="{width}" '
        f'height="{height}" role="img" '
        'style="background:#fafafa;border:1px solid #ddd;vertical-align:middle">'
        f'<polyline points="{coords}" fill="none" stroke="{stroke}" '
        'stroke-width="1.5"/></svg>'
    )


def _window_rows(monitor, last: int) -> List[dict]:
    windows = monitor.windows
    return windows[-last:] if last and len(windows) > last else list(windows)


def render_text(monitor, last: int = 12) -> str:
    """Render the monitor state as a terminal panel (a string)."""
    cfg = monitor.config
    summary = monitor.summary()
    lines: List[str] = []
    lines.append("online attack monitor")
    lines.append("=" * 70)
    bound = summary["bound"]
    lines.append(
        f"config: window={cfg.window}s  n={fmt(cfg.n)}  rate={fmt(cfg.rate)}  "
        f"c={cfg.c}  d={cfg.d}  x={fmt(cfg.x)}"
    )
    lines.append(
        f"bound:  {fmt(bound)}   rules: {', '.join(cfg.rules) or '(none)'}"
    )
    lines.append(
        f"state:  windows={summary['windows']}  alerts={summary['alerts']}  "
        f"runs={summary['runs']}  final_gain={fmt(summary['final_gain'])}  "
        f"max_gain={fmt(summary['max_gain'])}"
    )
    rows = _window_rows(monitor, last)
    if rows:
        lines.append("")
        lines.append(
            f"{'t_end':>10} {'req':>8} {'hit%':>6} {'entropy':>8} "
            f"{'gain':>8} {'bound':>8}  alerts"
        )
        lines.append("-" * 70)
        for w in rows:
            t_end = w.get("t_end", w.get("trial"))
            gain = w.get("running_gain", w.get("gain"))
            hit = w.get("hit_ratio")
            lines.append(
                f"{fmt(t_end):>10} {fmt(w.get('requests')):>8} "
                f"{fmt(100.0 * hit, 3) if hit is not None else '-':>6} "
                f"{fmt(w.get('normalized_entropy')):>8} "
                f"{fmt(gain):>8} {fmt(w.get('bound')):>8}  "
                f"{','.join(w.get('alerts', [])) or '-'}"
            )
    alerts = monitor.alerts
    if alerts:
        lines.append("")
        lines.append(f"alerts ({len(alerts)}):")
        for a in alerts[-last:]:
            lines.append(
                f"  [{a['rule']}] trial={fmt(a.get('trial'))} "
                f"window={fmt(a.get('window'))} t={fmt(a.get('t'))} "
                f"value={fmt(a.get('value'))} > threshold={fmt(a.get('threshold'))}"
            )
    gq = summary["gain_quantiles"]
    if gq.get("count"):
        lines.append("")
        lines.append(
            "gain quantiles:      "
            + "  ".join(f"{k}={fmt(v)}" for k, v in gq.items())
        )
    nq = summary["node_load_quantiles"]
    if nq.get("count"):
        lines.append(
            "node-load quantiles: "
            + "  ".join(f"{k}={fmt(v)}" for k, v in nq.items())
        )
    layer_rows = [
        (run["trial"], row)
        for run in monitor.summaries for row in run.get("layers", ())
    ]
    if layer_rows:
        # Cache-tree runs only: flat-cache panels end above.
        lines.append("")
        lines.append("per-layer shard load vs the DistCache two-choice bound:")
        for trial, row in layer_rows:
            status = "ok" if row["within_bound"] else "VIOLATED"
            lines.append(
                f"  trial {trial} layer {row['layer']} ({row['shards']} shard(s), "
                f"{row['keys']} keys): busiest shard served "
                f"{row['shard_max']}/{row['hits']} hits, "
                f"bound {row['distcache_bound']:.1f} [{status}]"
            )
    return "\n".join(lines)


def _svg_gain_chart(monitor, width: int = 720, height: int = 240) -> str:
    """Inline SVG polyline of running gain vs the bound, per window."""
    points = []
    for i, w in enumerate(monitor.windows):
        gain = w.get("running_gain", w.get("gain"))
        if gain is not None and gain == gain:
            points.append((i, float(gain), w.get("bound")))
    if not points:
        return "<p>(no windows recorded)</p>"
    bounds = [b for _, _, b in points if b is not None]
    y_values = [g for _, g, _ in points] + bounds
    y_max = max(y_values) * 1.1 or 1.0
    x_max = max(len(points) - 1, 1)
    pad = 36

    def sx(i: float) -> float:
        return pad + i / x_max * (width - 2 * pad)

    def sy(v: float) -> float:
        return height - pad - v / y_max * (height - 2 * pad)

    gain_pts = " ".join(f"{sx(i):.1f},{sy(g):.1f}" for i, (_, g, _) in enumerate(points))
    parts = [
        f'<svg viewBox="0 0 {width} {height}" width="{width}" height="{height}" '
        'role="img" style="background:#fafafa;border:1px solid #ddd">',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
        f'y2="{height - pad}" stroke="#888"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="#888"/>',
        f'<polyline points="{gain_pts}" fill="none" stroke="#c0392b" stroke-width="2"/>',
    ]
    if bounds:
        bound_pts = " ".join(
            f"{sx(i):.1f},{sy(b):.1f}"
            for i, (_, _, b) in enumerate(points)
            if b is not None
        )
        parts.append(
            f'<polyline points="{bound_pts}" fill="none" stroke="#2980b9" '
            'stroke-width="2" stroke-dasharray="6 4"/>'
        )
    parts.append(
        f'<text x="{pad}" y="{pad - 10}" font-size="12" fill="#c0392b">running gain</text>'
    )
    parts.append(
        f'<text x="{pad + 110}" y="{pad - 10}" font-size="12" fill="#2980b9">'
        "Theorem-2 bound</text>"
    )
    parts.append(
        f'<text x="{pad - 6}" y="{height - pad + 14}" font-size="11" '
        'text-anchor="start" fill="#555">window →</text>'
    )
    parts.append(
        f'<text x="{pad - 30}" y="{sy(y_max / 1.1):.1f}" font-size="11" '
        f'fill="#555">{y_max / 1.1:.3g}</text>'
    )
    parts.append("</svg>")
    return "".join(parts)


def render_html(monitor, title: str = "Online attack monitor") -> str:
    """Render the monitor state as a standalone HTML page (a string)."""
    summary = monitor.summary()
    window_rows = []
    for w in monitor.windows:
        window_rows.append(
            {
                "trial": w.get("trial"),
                "index": w.get("index"),
                "t_end": w.get("t_end"),
                "requests": w.get("requests"),
                "hit_ratio": w.get("hit_ratio"),
                "entropy": w.get("normalized_entropy"),
                "gain": w.get("running_gain", w.get("gain")),
                "bound": w.get("bound"),
                "alerts": ",".join(w.get("alerts", [])) or None,
            }
        )
    alert_rows = [
        {
            "rule": a.get("rule"),
            "trial": a.get("trial"),
            "window": a.get("window"),
            "t": a.get("t"),
            "value": a.get("value"),
            "threshold": a.get("threshold"),
        }
        for a in monitor.alerts
    ]
    quant_rows = [
        {"series": "gain", **summary["gain_quantiles"]},
        {"series": "node-load", **summary["node_load_quantiles"]},
    ]
    body = [
        f'<p class="kv">bound={html.escape(fmt(summary["bound"]))} '
        f"windows={summary['windows']} alerts={summary['alerts']} "
        f"runs={summary['runs']} final_gain={html.escape(fmt(summary['final_gain']))} "
        f"max_gain={html.escape(fmt(summary['max_gain']))}</p>",
        "<h2>Running gain vs Theorem-2 bound</h2>",
        _svg_gain_chart(monitor),
        "<h2>Windows</h2>",
        _html_table(
            window_rows,
            ["trial", "index", "t_end", "requests", "hit_ratio", "entropy",
             "gain", "bound", "alerts"],
        ),
        "<h2>Alerts</h2>",
        _html_table(alert_rows, ["rule", "trial", "window", "t", "value", "threshold"]),
        "<h2>Quantile sketches (P²)</h2>",
        _html_table(
            quant_rows,
            ["series", "p50", "p95", "p99", "count", "mean", "min", "max"],
        ),
    ]
    return html_page(title, body)


def write_html(
    monitor, path: Union[str, Path], title: Optional[str] = None
) -> Path:
    """Write :func:`render_html` output to ``path``; returns the path."""
    path = Path(path)
    path.write_text(
        render_html(monitor, title=title or "Online attack monitor"),
        encoding="utf-8",
    )
    return path
