"""Run provenance and the throughput semantics of a bench record's ``run`` block."""

from repro.perf.harness import BenchSpec
from repro.perf.schema import git_sha, host_info, peak_rss_bytes


def run_block(tmp_path, times, workload):
    """Execute a bench on a clock reading ``times``; return its ``run`` block.

    The harness reads the clock six times: outer open, engine open and
    close, export open and close, outer close.
    """
    clock = iter(times).__next__
    spec = BenchSpec(
        name="demo", run=lambda: {"value": 1}, render=repr, workload=workload
    )
    return spec.execute(
        smoke=True, clock=clock, directory=tmp_path, quiet=True
    ).record["run"]


class TestThroughput:
    def test_divides_by_engine_time_not_wall(self, tmp_path):
        run = run_block(
            tmp_path, [0.0, 0.0, 2.0, 2.0, 10.0, 10.0],
            lambda p: {"events": 1000, "balls": 4000},
        )
        assert run["engine_seconds"] == 2.0
        assert run["wall_seconds"] == 10.0
        assert run["events_per_second"] == 500.0
        assert run["balls_per_second"] == 2000.0

    def test_none_without_workload(self, tmp_path):
        run = run_block(tmp_path, [0.0, 0.0, 2.0, 2.0, 3.0, 3.0], None)
        assert run["events"] is None and run["balls"] is None
        assert run["events_per_second"] is None
        assert run["balls_per_second"] is None

    def test_none_with_zero_engine_time(self, tmp_path):
        run = run_block(
            tmp_path, [0.0] * 6, lambda p: {"events": 1000, "balls": 4000}
        )
        assert run["events_per_second"] is None
        assert run["balls_per_second"] is None


class TestProvenance:
    def test_git_sha_in_this_checkout(self):
        sha = git_sha()
        assert sha is None or (len(sha) == 40 and set(sha) <= set("0123456789abcdef"))

    def test_git_sha_outside_checkout(self, tmp_path):
        assert git_sha(cwd=tmp_path) is None

    def test_host_info_keys(self):
        info = host_info()
        assert {"cpu_count", "python", "platform"} <= set(info)

    def test_peak_rss_positive_on_posix(self):
        peak = peak_rss_bytes()
        assert peak is None or peak > 0
