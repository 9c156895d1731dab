"""Static HTML perf report over the bench history.

One self-contained page (no external assets — same contract as the
monitor dashboard): a summary table of the latest run per bench with an
inline engine-seconds sparkline over its full trajectory, the top spans
across the latest manifests, and a flamegraph-style nested-span view
(indented by slash-separated span path, bar width proportional to time
within each bench).  All layout machinery is shared with
:mod:`repro.obs.dashboard`.
"""

from __future__ import annotations

import html
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..obs.dashboard import fmt, html_page, html_table, svg_sparkline
from .history import RunManifest, group_by_bench

__all__ = ["render_report", "write_report"]

#: How many spans the cross-bench "top spans" table shows.
TOP_SPANS = 15


def _mode(smoke: bool) -> str:
    return "smoke" if smoke else "full"


def _latest_per_bench(
    manifests: Sequence[RunManifest],
) -> Dict[str, List[RunManifest]]:
    return group_by_bench(manifests)


def _summary_section(groups: Dict[str, List[RunManifest]]) -> List[str]:
    parts = ["<h2>Benchmarks</h2>"]
    if not groups:
        return parts + ["<p>(history is empty)</p>"]
    head = (
        "<tr><th>bench</th><th>mode</th><th>runs</th><th>engine s</th>"
        "<th>export s</th><th>events/s</th><th>balls/s</th>"
        "<th>peak MiB</th><th>ok</th><th>engine-s trajectory</th></tr>"
    )
    rows = []
    for bench, runs in sorted(groups.items()):
        latest = runs[-1]
        spark = svg_sparkline(
            [m.engine_seconds for m in runs], width=180, height=28
        )
        peak = latest.rss_peak_bytes
        peak_mib = peak / (1024 * 1024) if peak is not None else None
        cells = [
            html.escape(bench),
            _mode(latest.smoke),
            str(len(runs)),
            fmt(latest.engine_seconds),
            fmt(latest.export_seconds),
            fmt(latest.events_per_second, 3),
            fmt(latest.balls_per_second, 3),
            fmt(peak_mib, 3),
            "yes" if latest.ok else "NO",
        ]
        rows.append(
            "<tr>"
            + "".join(f"<td>{c}</td>" for c in cells)
            + f'<td style="text-align:left">{spark}</td></tr>'
        )
    parts.append(
        "<table><thead>" + head + "</thead><tbody>" + "".join(rows)
        + "</tbody></table>"
    )
    return parts


def _top_spans_section(groups: Dict[str, List[RunManifest]]) -> List[str]:
    spans: List[dict] = []
    for bench, runs in groups.items():
        for path, stats in runs[-1].spans.items():
            spans.append(
                {
                    "bench": bench,
                    "span": path,
                    "count": stats.get("count"),
                    "total_seconds": stats.get("total_seconds"),
                    "mean_seconds": stats.get("mean_seconds"),
                    "p95_seconds": stats.get("p95_seconds"),
                }
            )
    spans.sort(key=lambda s: -(s["total_seconds"] or 0.0))
    return [
        f"<h2>Top spans (latest run per bench, top {TOP_SPANS})</h2>",
        html_table(
            spans[:TOP_SPANS],
            ["bench", "span", "count", "total_seconds", "mean_seconds",
             "p95_seconds"],
        ),
    ]


def _span_tree(spans: Dict[str, dict]) -> List[Tuple[int, str, dict]]:
    """Sorted (depth, leaf-name, stats) rows from slash-joined paths."""
    rows = []
    for path in sorted(spans):
        segments = path.split("/")
        rows.append((len(segments) - 1, segments[-1], spans[path]))
    return rows


def _nested_span_section(groups: Dict[str, List[RunManifest]]) -> List[str]:
    parts = ["<h2>Nested spans (latest run per bench)</h2>"]
    any_spans = False
    for bench, runs in sorted(groups.items()):
        latest = runs[-1]
        if not latest.spans:
            continue
        any_spans = True
        total = max(
            (s.get("total_seconds") or 0.0 for s in latest.spans.values()),
            default=0.0,
        ) or 1.0
        parts.append(f"<h3>{html.escape(bench)}</h3>")
        lines = []
        for depth, leaf, stats in _span_tree(latest.spans):
            seconds = stats.get("total_seconds") or 0.0
            bar = max(1, int(round(seconds / total * 320)))
            indent = depth * 18
            lines.append(
                f'<div style="margin-left:{indent}px;white-space:nowrap">'
                f'<span style="display:inline-block;width:{bar}px;height:10px;'
                'background:#2980b9;margin-right:6px;vertical-align:middle">'
                "</span>"
                f"{html.escape(leaf)} — {fmt(seconds)}s × "
                f"{fmt(stats.get('count'))}</div>"
            )
        parts.append("".join(lines))
    if not any_spans:
        parts.append("<p>(no spans recorded)</p>")
    return parts


def render_report(
    manifests: Sequence[RunManifest], title: str = "Perf report"
) -> str:
    """Render the history as a standalone HTML report (a string)."""
    groups = _latest_per_bench(manifests)
    body: List[str] = [
        f'<p class="kv">{len(manifests)} run(s) over {len(groups)} '
        "bench(es); throughput is workload ÷ <em>engine</em> seconds "
        "(export/serialization timed separately)</p>"
    ]
    body.extend(_summary_section(groups))
    body.extend(_top_spans_section(groups))
    body.extend(_nested_span_section(groups))
    return html_page(title, body)


def write_report(
    manifests: Sequence[RunManifest],
    path: Union[str, Path],
    title: Optional[str] = None,
) -> Path:
    """Write :func:`render_report` output to ``path``; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        render_report(manifests, title=title or "Perf report"),
        encoding="utf-8",
    )
    return path
