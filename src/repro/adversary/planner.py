"""Attack planning: the adversary's (and defender's) decision procedure.

Thin strategy-layer wrappers over :mod:`repro.core.cases` and
:mod:`repro.core.baseline_socc11`, packaged so examples and the CLI can
answer "what would the best attack look like, replicated vs not?" in one
call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core import baseline_socc11
from ..core.cases import AttackPlan, plan_best_attack
from ..core.notation import SystemParameters

__all__ = ["BaselineComparison", "compare_with_baseline"]


@dataclass(frozen=True)
class BaselineComparison:
    """Side-by-side of the replicated and unreplicated best attacks.

    The paper's Section III-B discussion in one object: with replication
    a big-enough cache forces ``gain <= 1`` (prevention); without it the
    adversary always has an effective interior optimum.
    """

    replicated: AttackPlan
    unreplicated: baseline_socc11.BaselinePlan

    @property
    def replication_prevents(self) -> bool:
        """True when replication + cache flips an effective attack to
        ineffective."""
        return self.unreplicated.effective and not self.replicated.effective

    def describe(self) -> str:
        """Human-readable comparison."""
        return "\n".join(
            [
                f"replicated   : {self.replicated.describe()}",
                f"unreplicated : {self.unreplicated.describe()}",
                (
                    "=> replication turns the attack ineffective"
                    if self.replication_prevents
                    else "=> both settings share the same verdict"
                ),
            ]
        )


def compare_with_baseline(
    params: SystemParameters, k: Optional[float] = None, k_prime: float = 0.0
) -> BaselineComparison:
    """Plan the best attack under both analyses for the same system."""
    return BaselineComparison(
        replicated=plan_best_attack(params, k=k, k_prime=k_prime),
        unreplicated=baseline_socc11.plan_best_attack(params),
    )
