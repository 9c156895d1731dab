"""The shared HTML layout helpers of ``repro.obs.dashboard``.

The forensic dashboard and the scenario campaign report both build
their pages from these.
"""

from repro.obs.dashboard import fmt, html_page, html_table, svg_sparkline


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
