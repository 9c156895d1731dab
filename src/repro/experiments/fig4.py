"""Figure 4: normalized max workload vs cluster size, three patterns.

Fixed cache ``c = 100``, replication ``d = 3``; the cluster size ``n``
sweeps while the access pattern is one of:

- **uniform** over all ``m`` keys — the good-citizen baseline; its
  normalized max stays flat near 1 as ``n`` grows;
- **Zipf(1.01)** — realistic skew; the cache absorbs the head, so the
  back end sees the *least* load of the three;
- **adversarial** — the paper's optimal strategy; with ``c = 100`` far
  below every critical point in the sweep, the adversary queries
  ``x = c + 1`` keys and the normalized max grows roughly like
  ``n / (c + 1)``.

The orderings (zipf < uniform < adversarial) and the adversarial growth
with ``n`` are the figure's qualitative content.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..adversary.strategies import OptimalAdversary, UniformFlood, ZipfClient
from ..obs.context import NULL_CONTEXT, RunContext
from ..sim.analytic import MonteCarloSimulator
from .params import PAPER, PaperParams
from .report import ExperimentResult

__all__ = ["run_fig4", "DEFAULT_N_VALUES"]

#: Node counts n swept by default.  The paper's axis spans hundreds of
#: nodes up to ~1000; beyond that (with c = 100 and m = 1e5) the Zipf
#: tail's hottest uncached key alone exceeds the even split and the
#: zipf < uniform ordering inverts — a regime the paper does not plot.
DEFAULT_N_VALUES = (100, 200, 400, 600, 800, 1000)


def run_fig4(
    paper: PaperParams = PAPER,
    n_values: Sequence[int] = DEFAULT_N_VALUES,
    cache_size: Optional[int] = None,
    trials: Optional[int] = None,
    seed: Optional[int] = None,
    m: Optional[int] = None,
    selection: str = "least-loaded",
    chaos=None,
    context: RunContext = NULL_CONTEXT,
) -> ExperimentResult:
    """Run the Figure-4 sweep.

    Returns columns: ``n``, ``uniform``, ``zipf``, ``adversarial`` —
    each the max-over-trials normalized maximum load.  ``m`` can shrink
    the key space for quick runs (the uniform/Zipf points scale with m).
    ``chaos`` degrades every trial at the failure process's steady state
    (see :class:`repro.chaos.ChaosConfig`); ``context`` (a
    :class:`repro.obs.RunContext`) carries the worker count and the
    instruments.
    """
    c = paper.c_fig4 if cache_size is None else cache_size
    trials = paper.trials if trials is None else trials
    key_space = paper.m if m is None else m
    columns = {"n": [], "uniform": [], "zipf": [], "adversarial": []}
    for n in n_values:
        params = paper.system(c=c, n=n)
        if key_space != paper.m:
            params = params.__class__(
                n=n, m=key_space, c=c, d=paper.d, rate=paper.rate
            )
        sim = MonteCarloSimulator(
            params, trials=trials, seed=seed, selection=selection,
            chaos=chaos, context=context,
        )
        patterns = {
            "uniform": UniformFlood(params).distribution(),
            "zipf": ZipfClient(params, s=paper.zipf_s).distribution(),
            "adversarial": OptimalAdversary(params, k=paper.k).distribution(),
        }
        columns["n"].append(int(n))
        for label, dist in patterns.items():
            report = sim.distribution_attack(dist)
            columns[label].append(report.worst_case)
    notes = []
    zipf_below = sum(
        z <= u + 1e-9 for z, u in zip(columns["zipf"], columns["uniform"])
    )
    notes.append(
        f"zipf <= uniform at {zipf_below}/{len(n_values)} points "
        "(the cache absorbs the Zipf head)"
    )
    # At n ~ c the Case-1 plan (x = c + 1) spreads over too few nodes to
    # beat uniform; the adversarial advantage appears once n >> c.
    adv_above = sum(
        a >= u - 1e-9 for a, u in zip(columns["adversarial"], columns["uniform"])
    )
    notes.append(f"adversarial >= uniform at {adv_above}/{len(n_values)} points")
    grows = columns["adversarial"][-1] > columns["adversarial"][0]
    notes.append(
        "adversarial load grows with n" if grows else "adversarial load does NOT grow with n"
    )
    return ExperimentResult(
        name="fig4",
        description=(
            "normalized max workload vs number of back-end nodes under "
            "uniform / Zipf(1.01) / adversarial access patterns"
        ),
        columns=columns,
        config={
            "c": c,
            "m": key_space,
            "d": paper.d,
            "trials": trials,
            "k": paper.k,
            "zipf_s": paper.zipf_s,
            "selection": selection,
            **({"chaos": chaos.describe()} if chaos is not None else {}),
        },
        notes=notes,
    )
