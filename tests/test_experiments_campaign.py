"""Tests for the full-evaluation campaign (``repro all``)."""

import contextlib
import io

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def all_run(tmp_path_factory):
    """One tiny ``repro all`` run shared by the tests: (stdout, report file)."""
    out_file = tmp_path_factory.mktemp("campaign") / "report.md"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        # Tiny trial count keeps this a smoke test; full runs are the
        # benchmarks' job.
        code = main(["all", "--trials", "2", "--seed", "1", "--output", str(out_file)])
    assert code == 0
    return stdout.getvalue(), out_file


class TestRunCampaign:
    def test_progress_callback(self, all_run):
        out, _ = all_run
        assert "running fig5 (2 trials per point)..." in out

    def test_render_contains_each_figure(self, all_run):
        out, _ = all_run
        assert "full evaluation run" in out
        assert "(trials per sweep point: 2;" in out
        assert "== fig5" in out

    def test_all_drivers_registered(self, all_run):
        out, _ = all_run
        blocks = [
            line.split()[1].rstrip(":") for line in out.splitlines()
            if line.startswith("== ")
        ]
        # The two fig5 panels come from one joint sweep: a single block.
        assert blocks == ["fig3a", "fig3b", "fig4", "fig5"]

    def test_cli_all_command(self, all_run):
        out, out_file = all_run
        assert "== fig3a" in out and "== fig5" in out
        assert out_file.exists()
        assert "== fig4" in out_file.read_text()
