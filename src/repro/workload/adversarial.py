"""The adversarial access pattern as a workload distribution.

Bridges :mod:`repro.core.strategy` (where the pattern is derived) into
the :class:`~repro.workload.distributions.KeyDistribution` interface the
simulators consume: uniform over a prefix of ``x`` keys, the Theorem-1
fixed point with minimal cache absorption.
"""

from __future__ import annotations

import numpy as np

from ..core.notation import SystemParameters
from ..core.cases import optimal_query_count
from ..exceptions import DistributionError
from ..scenario.registry import register_component
from .distributions import KeyDistribution

__all__ = ["AdversarialDistribution"]


@register_component(
    "workload", "adversarial", example=lambda ctx: {"x": ctx.params.c + 1}
)
class AdversarialDistribution(KeyDistribution):
    """Uniform queries over the first ``x`` of ``m`` keys.

    Parameters
    ----------
    m:
        Key-space size.
    x:
        Number of keys the adversary queries.  To bypass a cache of size
        ``c`` the adversary picks ``x > c``; :meth:`optimal_for` chooses
        the bound-optimal ``x`` automatically.
    client_id:
        Ground-truth attribution tag (see
        :meth:`~repro.workload.distributions.KeyDistribution.client_map`).
        ``0`` (the default) declares nothing; a positive id marks the
        flooded prefix as this attacker's keys so trace records carry
        the true culprit.  Stealth mixtures rely on this to label only
        the adversarial component of blended traffic.
    """

    name = "adversarial"

    def __init__(self, m: int, x: int, client_id: int = 0) -> None:
        super().__init__(m)
        if not 1 <= x <= m:
            raise DistributionError(f"need 1 <= x <= m, got x={x}, m={m}")
        if client_id < 0:
            raise DistributionError(
                f"client_id must be non-negative, got {client_id}"
            )
        self._x = x
        self._client_id = int(client_id)

    @classmethod
    def optimal_for(
        cls, params: SystemParameters, k: float = None, k_prime: float = 0.0
    ) -> "AdversarialDistribution":
        """The bound-optimal pattern against a known ``(n, m, c, d)``.

        Case 1 (small cache): ``x = c + 1``; Case 2 (provisioned cache):
        ``x = m`` — see :mod:`repro.core.cases`.
        """
        return cls(params.m, optimal_query_count(params, k=k, k_prime=k_prime))

    @property
    def x(self) -> int:
        """Number of keys queried."""
        return self._x

    @property
    def client_id(self) -> int:
        """Ground-truth attribution tag (0 = undeclared)."""
        return self._client_id

    def client_map(self):
        if self._client_id == 0:
            return None
        ids = np.zeros(self._m, dtype=np.int64)
        ids[: self._x] = self._client_id
        return ids

    def probabilities(self) -> np.ndarray:
        probs = np.zeros(self._m)
        probs[: self._x] = 1.0 / self._x
        return probs

    def top_keys(self, c: int) -> np.ndarray:
        """The first ``min(c, m)`` keys, without sorting the ``m`` probabilities.

        Equal to the base class's stable argsort: the flooded prefix ties
        at ``1/x``, the other keys tie at 0, and ties go to the lower id.
        """
        if c < 0:
            raise DistributionError(f"c must be non-negative, got {c}")
        return np.arange(min(c, self._m), dtype=np.int64)

    def sample(self, size, rng=None):
        # Uniform prefix: sample directly instead of via the CDF table.
        from ..rng import as_generator

        if size < 0:
            raise DistributionError(f"size must be non-negative, got {size}")
        gen = as_generator(rng, "sample-adversarial")
        return gen.integers(0, self._x, size=size, dtype=np.int64)

    def uncached_keys(self, c: int) -> np.ndarray:
        """Keys that bypass a perfect cache of size ``c`` (may be empty)."""
        if c < 0:
            raise DistributionError(f"c must be non-negative, got {c}")
        return np.arange(min(c, self._x), self._x, dtype=np.int64)
