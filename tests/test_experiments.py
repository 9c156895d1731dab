"""Tests for the experiment drivers (reduced-scale, shape-checking)."""

import numpy as np
import pytest

from repro.core.cases import critical_cache_size
from repro.exceptions import AnalysisError
from repro.experiments.params import PAPER, PaperParams
from repro.experiments.report import ExperimentResult, format_number, render_table
from repro.experiments.fig3 import default_x_grid, run_fig3, run_fig3a, run_fig3b
from repro.experiments.fig4 import run_fig4
from repro.experiments.fig5 import run_fig5, run_fig5a, run_fig5b
from repro.experiments.sweep import attack_point, point_seed
from repro.obs import NULL_CONTEXT, RunContext
from repro.sim import analytic
from repro.sim.analytic import simulate_distribution
from repro.workload.adversarial import AdversarialDistribution

# A scaled-down PaperParams: same structure, minutes -> seconds.
SMALL = PaperParams(
    n=100, m=5000, d=3, rate=10_000.0, c_small=20, c_large=400,
    c_fig4=10, trials=6, k=1.2,
)


class TestPaperParams:
    def test_defaults_match_section_four(self):
        assert PAPER.n == 1000
        assert PAPER.d == 3
        assert PAPER.trials == 200
        assert PAPER.k == 1.2
        assert PAPER.c_small == 200
        assert PAPER.c_large == 2000

    def test_critical_cache(self):
        assert PAPER.critical_cache == 1201

    def test_system_builder(self):
        params = PAPER.system(c=300)
        assert params.c == 300 and params.n == 1000
        assert PAPER.system(c=300, n=50).n == 50


class TestReport:
    def test_format_number(self):
        assert format_number(3) == "3"
        assert format_number(3.0) == "3"
        assert format_number(3.14159, precision=3) == "3.14"
        assert format_number(float("nan")) == "nan"
        assert format_number("abc") == "abc"
        assert format_number(True) == "True"

    def test_render_table_alignment(self):
        text = render_table({"x": [1, 20], "gain": [1.5, 0.25]})
        lines = text.splitlines()
        assert len(lines) == 4  # header, rule, two rows
        assert "gain" in lines[0]

    def test_render_rejects_ragged(self):
        with pytest.raises(AnalysisError):
            render_table({"a": [1], "b": [1, 2]})

    def test_experiment_result_render(self):
        result = ExperimentResult(
            name="demo", description="d", columns={"x": [1]}, config={"n": 5},
            notes=["hello"],
        )
        text = result.render()
        assert "== demo" in text
        assert "n=5" in text
        assert "note: hello" in text

    def test_column_accessor(self):
        result = ExperimentResult(name="demo", description="d", columns={"x": [1]})
        assert result.column("x") == [1]
        with pytest.raises(AnalysisError):
            result.column("missing")


class TestFig3:
    def test_default_grid_brackets_range(self):
        grid = default_x_grid(200, 100_000)
        assert grid[0] == 201
        assert grid[-1] == 100_000
        assert (np.diff(grid) > 0).all()

    def test_small_cache_panel_shape(self):
        result = run_fig3(SMALL.c_small, paper=SMALL, seed=1)
        gains = result.column("sim_max")
        xs = result.column("x")
        assert xs[0] == SMALL.c_small + 1
        # Paper shape: decreasing in x, effective near x = c + 1.
        assert gains[0] > 1.0
        assert gains[0] > gains[-1]
        assert "decreasing" in result.notes[0]

    def test_large_cache_panel_shape(self):
        result = run_fig3(SMALL.c_large, paper=SMALL, seed=1)
        gains = result.column("sim_max")
        # Paper shape: increasing in x, never effective.
        assert gains[-1] >= gains[0]
        assert max(gains) <= 1.1  # <= 1 up to Monte-Carlo wiggle
        assert "increasing" in result.notes[0]

    def test_calibrated_bound_holds(self):
        result = run_fig3(SMALL.c_small, paper=SMALL, seed=2)
        sim = np.asarray(result.column("sim_max"))
        calib = np.asarray(result.column("bound_calib"))
        assert (sim <= calib + 1e-9).all()

    def test_explicit_x_values(self):
        result = run_fig3(
            SMALL.c_small, paper=SMALL, x_values=[25, 100, 1000], seed=1
        )
        assert result.column("x") == [25, 100, 1000]

    def test_config_recorded(self):
        result = run_fig3(SMALL.c_small, paper=SMALL, trials=3, seed=1)
        assert result.config["trials"] == 3
        assert result.config["c"] == SMALL.c_small


class TestFig4:
    def test_columns_and_shape(self):
        result = run_fig4(paper=SMALL, n_values=(50, 100, 200), seed=1, m=2000)
        assert result.column("n") == [50, 100, 200]
        adv = result.column("adversarial")
        # Adversarial grows roughly linearly with n (x = c + 1 flood).
        assert adv[-1] > adv[0]
        assert adv[-1] == pytest.approx(200 / (SMALL.c_fig4 + 1), rel=0.05)

    def test_zipf_below_uniform_in_paper_regime(self):
        result = run_fig4(paper=SMALL, n_values=(50, 100), seed=1, m=5000)
        for z, u in zip(result.column("zipf"), result.column("uniform")):
            assert z <= u + 0.1

    def test_uniform_stays_near_one(self):
        result = run_fig4(paper=SMALL, n_values=(50, 100, 200), seed=1, m=5000)
        for u in result.column("uniform"):
            assert 0.8 < u < 1.6


class TestFig5:
    def test_joint_sweep_columns(self):
        result = run_fig5(
            paper=SMALL, cache_values=(20, 100, 300, 600), seed=1
        )
        assert result.column("c") == [20, 100, 300, 600]
        gains = result.column("best_gain")
        assert gains[0] > gains[-1]  # decreasing in cache size
        assert gains[0] > 1.0  # tiny cache: effective

    def test_x_queried_step_structure(self):
        result = run_fig5(paper=SMALL, cache_values=(20, 600), seed=1)
        xs = result.column("x_queried")
        assert xs[0] == 21  # Case 1: c + 1
        assert xs[1] == SMALL.m  # Case 2: the whole key space

    def test_effective_flag_consistent(self):
        result = run_fig5(paper=SMALL, cache_values=(20, 600), seed=1)
        for gain, flag in zip(result.column("best_gain"), result.column("effective")):
            assert flag == (gain > 1.0)

    def test_panel_views(self):
        a = run_fig5a(paper=SMALL, cache_values=(20, 600), seed=1)
        assert set(a.columns) == {"c", "best_gain", "effective"}
        assert a.name == "fig5a"
        b = run_fig5b(paper=SMALL, cache_values=(20, 600), seed=1)
        assert set(b.columns) == {"c", "x_queried"}
        assert b.name == "fig5b"

    def test_notes_mention_critical_points(self):
        result = run_fig5(paper=SMALL, cache_values=(20, 600), seed=1)
        joined = " ".join(result.notes)
        assert "critical point" in joined


class TestSweepPoints:
    """Every Fig. 3/5 point is its own campaign, at a seed derived from
    the root seed, and reruns from the seed its report records."""

    @staticmethod
    def _rerun(c, x, seed):
        return simulate_distribution(
            SMALL.system(c=c), AdversarialDistribution(SMALL.m, x),
            trials=SMALL.trials, seed=seed,
        )

    def test_report_records_the_point_seed(self):
        report = attack_point(
            SMALL.system(c=20), 300, 7, 2, "least-loaded", None, NULL_CONTEXT
        )
        assert report.metadata["seed"] == point_seed(7, 20, 300)
        assert report.metadata["x"] == 300

    def test_fig3_point_reruns_from_its_seed(self):
        result = run_fig3a(paper=SMALL, x_values=[21, 300], seed=7)
        rerun = self._rerun(20, 300, point_seed(7, 20, 300))
        assert result.column("sim_max")[1] == rerun.worst_case
        assert result.column("sim_mean")[1] == rerun.mean

    def test_fig5_point_reruns_from_its_seed(self):
        result = run_fig5(paper=SMALL, cache_values=[600], seed=7)
        x = result.column("x_queried")[0]
        rerun = self._rerun(600, x, point_seed(7, 600, x))
        assert result.column("best_gain")[0] == rerun.worst_case

    def test_fig3_panels_do_not_share_the_full_sweep_stream(self, monkeypatch):
        # The generator state each campaign's first trial starts from.
        starts = []
        sample = analytic.sample_replica_groups

        def spy(count, n, d, rng=None):
            starts.append(rng.bit_generator.state["state"]["state"])
            return sample(count, n, d, rng=rng)

        monkeypatch.setattr(analytic, "sample_replica_groups", spy)
        run_fig3a(paper=SMALL, x_values=[SMALL.m], trials=1, seed=3)
        run_fig3b(paper=SMALL, x_values=[SMALL.m], trials=1, seed=3)
        assert len(starts) == 2
        assert starts[0] != starts[1]

    def test_fig5_serial_matches_two_workers(self):
        kwargs = dict(paper=SMALL, cache_values=(20, 600), trials=4, seed=9)
        serial = run_fig5(**kwargs)
        parallel = run_fig5(**kwargs, context=RunContext(workers=2))
        assert serial.columns == parallel.columns
        assert serial.notes == parallel.notes


@pytest.mark.slow
class TestPaperScaleShapes:
    """The paper's claims on the figure drivers' own defaults (the
    paper's system, fewer trials than its 200: the shapes stabilise far
    earlier than the worst-case tail)."""

    def test_fig3a(self):
        result = run_fig3a(trials=30, seed=31)
        gains = result.column("sim_max")
        xs = result.column("x")
        assert xs[0] == 201
        assert gains[0] > 1.0, "attack near x = c + 1 must be effective"
        assert gains[0] > gains[-1], "curve must decrease in x"
        calibrated = result.column("bound_calib")
        assert all(g <= b + 1e-9 for g, b in zip(gains, calibrated)), (
            "calibrated Eq. (10) bound must cover the simulation"
        )

    def test_fig3b(self):
        result = run_fig3b(trials=30, seed=32)
        gains = result.column("sim_max")
        assert gains[-1] >= gains[0], "curve must increase in x"
        assert max(gains) <= 1.1, "no strongly effective attack with c = 2000"
        calibrated = result.column("bound_calib")
        assert all(g <= b + 1e-9 for g, b in zip(gains, calibrated))

    def test_fig4(self):
        result = run_fig4(trials=10, seed=41)
        uniform = result.column("uniform")
        zipf = result.column("zipf")
        adversarial = result.column("adversarial")
        n_values = result.column("n")
        # Zipf stays below uniform across the paper's n range.
        assert all(z <= u + 0.1 for z, u in zip(zipf, uniform))
        # Uniform stays near 1 while adversarial grows with n.
        assert all(0.8 < u < 1.6 for u in uniform)
        assert adversarial[-1] > 3 * adversarial[0]
        # Adversarial growth is ~ n / (c + 1).
        c = result.config["c"]
        expected = n_values[-1] / (c + 1)
        assert abs(adversarial[-1] - expected) / expected < 0.1

    def test_fig5a(self):
        result = run_fig5a(trials=10, seed=51)
        cs = result.column("c")
        gains = result.column("best_gain")
        assert gains[0] > 1.0, "small caches must admit effective attacks"
        assert gains[-1] <= 1.05, "large caches must prevent them"
        # Weak monotonicity (Monte-Carlo wiggle tolerated).
        assert all(a >= b - 0.25 for a, b in zip(gains, gains[1:]))
        # The empirical crossing sits between the two analytic estimates
        # (paper's folded k = 1.2 and the substrate-calibrated k), up to the
        # sweep granularity.
        crossing = next(c for c, g in zip(cs, gains) if g <= 1.0)
        lo = critical_cache_size(PAPER.n, PAPER.d, k=PAPER.k)
        hi = critical_cache_size(PAPER.n, PAPER.d, k_prime=0.75)
        assert 0.5 * lo <= crossing <= 1.5 * hi

    def test_fig5b(self):
        result = run_fig5b(trials=10, seed=52)
        cs = result.column("c")
        xs = result.column("x_queried")
        # Every point is one of the two endpoints of the case analysis.
        assert all(x == c + 1 or x == PAPER.m for c, x in zip(cs, xs))
        # Both regimes are represented and the step is monotone (once the
        # adversary switches to the full sweep it never switches back).
        switched = [x == PAPER.m for x in xs]
        assert any(switched) and not all(switched)
        first_switch = switched.index(True)
        assert all(switched[first_switch:])
