"""HTML perf report and the shared dashboard layout helpers."""

from repro.obs.dashboard import fmt, html_page, html_table, svg_sparkline
from repro.perf.report import render_report, write_report
from repro.perf.schema import RunManifest


def make_manifest(bench="demo", engine=1.0, **overrides):
    base = dict(
        bench=bench,
        smoke=True,
        ok=True,
        engine_seconds=engine,
        export_seconds=0.25,
        wall_seconds=engine + 0.25,
        events=1000,
        balls=4000,
        spans={
            bench: {"count": 1, "total_seconds": engine + 0.25,
                    "mean_seconds": engine + 0.25},
            f"{bench}/engine": {"count": 1, "total_seconds": engine,
                                "mean_seconds": engine},
            f"{bench}/export": {"count": 1, "total_seconds": 0.25,
                                "mean_seconds": 0.25},
        },
        tracemalloc_peak_bytes=2 * 1024 * 1024,
    )
    base.update(overrides)
    return RunManifest(**base)


class TestDashboardHelpers:
    def test_sparkline_empty(self):
        assert svg_sparkline([]) == "<span>(no data)</span>"
        assert svg_sparkline([None, float("nan")]) == "<span>(no data)</span>"

    def test_sparkline_single_point_renders_flat_line(self):
        svg = svg_sparkline([3.0])
        assert svg.startswith("<svg")
        assert "polyline" in svg

    def test_sparkline_scales_series_into_box(self):
        svg = svg_sparkline([1.0, 2.0, 3.0], width=100, height=20)
        assert 'viewBox="0 0 100 20"' in svg

    def test_html_page_skeleton(self):
        page = html_page("My title", ["<p>body</p>"])
        assert page.startswith("<!DOCTYPE html>")
        assert "My title" in page
        assert "<p>body</p>" in page

    def test_fmt_handles_none(self):
        assert fmt(None) == "-"
        assert fmt(float("nan")) == "-"

    def test_html_table(self):
        table = html_table([{"a": 1, "b": 2}], ["a", "b"])
        assert "<table>" in table and "<th>a</th>" in table


class TestPerfReport:
    def test_empty_history_renders(self):
        page = render_report([])
        assert "history is empty" in page

    def test_report_contains_all_sections(self):
        manifests = [
            make_manifest("alpha", engine=1.0),
            make_manifest("alpha", engine=2.0),
            make_manifest("beta", engine=0.5, ok=False),
        ]
        page = render_report(manifests, title="Perf smoke")
        assert "Perf smoke" in page
        assert "alpha" in page and "beta" in page
        # Sparkline over the alpha trajectory.
        assert "<svg" in page
        # Top-span table and nested-span view.
        assert "Top spans" in page
        assert "Nested spans" in page
        assert "alpha/engine" in page or "engine" in page
        # Failed checks are visible.
        assert "NO" in page
        # The throughput definition is stated (the ISSUE 5 fix).
        assert "engine" in page and "export" in page

    def test_report_escapes_bench_names(self):
        page = render_report([make_manifest("<evil>")])
        assert "<evil>" not in page
        assert "&lt;evil&gt;" in page

    def test_write_report(self, tmp_path):
        out = tmp_path / "nested" / "report.html"
        path = write_report([make_manifest()], out, title="T")
        assert path == out
        assert out.read_text(encoding="utf-8").startswith("<!DOCTYPE html>")

    def test_peak_column_reads_rss(self):
        # New manifests carry no tracemalloc peak; the column is the RSS mark.
        manifest = make_manifest(
            tracemalloc_peak_bytes=None, rss_peak_bytes=int(77.25 * 1024 * 1024)
        )
        page = render_report([manifest])
        assert "<td>77.2</td>" in page
