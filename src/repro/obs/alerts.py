"""Rule-based alerting over window snapshots.

Five built-in rules, mirroring what the paper's quantities make
checkable online:

- ``gain-over-bound`` — the running attack gain ``L_max / (R/n)``
  exceeded the Theorem-2 bound ``1 + (1 - c + n k)/(x - 1)`` for the
  configured ``(n, d, c, x)``.  Under the theorem's assumptions this
  should (essentially) never fire; a firing means the configuration is
  outside the theorem (or the bound's constant is mis-calibrated).
- ``entropy-flat`` — the window's normalised key-frequency entropy is
  above the flatness threshold over non-trivial support: the Theorem-1
  uniform-prefix fingerprint (see ``tests/detection_oracle.py``).
- ``node-overload`` — one node's offered rate within the window
  exceeded ``overload_factor * R/n``.  The default factor 4.0 matches
  the event engine's default per-node capacity headroom, so a firing
  means a node was pushed past what the default provisioning serves.
- ``degraded-bound`` — failures shrank the window's effective
  replication choice below the configured ``d`` (chaos runs only: the
  window carries ``effective_d`` when fault injection is active).  The
  Theorem-2 constant ``k = log log n / log d`` grows as ``d`` shrinks,
  so each firing comes with a refreshed, *larger* bound in the window's
  ``degraded_bound`` field.
- ``attribution-concentration`` — one key-prefix bucket took at least
  ``concentration_threshold`` of a window's *traced* requests (trace
  runs only: evaluated by the attribution engine,
  :mod:`repro.obs.attribution`, over the sampled trace stream with the
  :class:`~repro.obs.trace.TraceConfig` as the rule context).  A firing
  names the suspected attack prefix — the signal a closed-loop defense
  would rate-limit.

Rules are pure functions of a window snapshot plus the monitor
configuration, so alert streams are deterministic and identical across
worker counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["AlertRule", "AlertEngine", "BUILTIN_RULES"]

#: A rule callback: ``(snapshot, config) -> None`` (quiet) or
#: ``(observed_value, threshold)`` (firing).
RuleFn = Callable[[dict, "object"], Optional[Tuple[float, float]]]


@dataclass(frozen=True)
class AlertRule:
    """One named alert predicate."""

    name: str
    fn: RuleFn
    description: str = ""

    def check(self, snapshot: dict, config) -> Optional[Tuple[float, float]]:
        """Evaluate against one window snapshot."""
        return self.fn(snapshot, config)


def _gain_over_bound(snapshot: dict, config) -> Optional[Tuple[float, float]]:
    bound = snapshot.get("bound")
    gain = snapshot.get("running_gain", snapshot.get("gain"))
    if bound is None or gain is None:
        return None
    if gain > bound:
        return float(gain), float(bound)
    return None


def _entropy_flat(snapshot: dict, config) -> Optional[Tuple[float, float]]:
    entropy = snapshot.get("normalized_entropy")
    distinct = snapshot.get("distinct_keys", 0)
    if entropy is None or distinct <= config.entropy_min_keys:
        return None
    if entropy >= config.entropy_threshold:
        return float(entropy), float(config.entropy_threshold)
    return None


def _node_overload(snapshot: dict, config) -> Optional[Tuple[float, float]]:
    even_split = config.even_split()
    if even_split is None:
        return None
    threshold = config.overload_factor * even_split
    if "node_max" in snapshot:
        seconds = snapshot.get("seconds") or 0.0
        if seconds <= 0.0:
            return None
        rate = snapshot["node_max"] / seconds
    elif "max_load" in snapshot:
        rate = snapshot["max_load"]
    else:
        return None
    if rate > threshold:
        return float(rate), float(threshold)
    return None


def _attribution_concentration(snapshot: dict, config) -> Optional[Tuple[float, float]]:
    share = snapshot.get("attribution_top_share")
    samples = snapshot.get("attribution_samples", 0)
    threshold = getattr(config, "concentration_threshold", None)
    if share is None or threshold is None:
        return None
    if samples < getattr(config, "min_samples", 0):
        return None
    if share >= threshold:
        return float(share), float(threshold)
    return None


def _degraded_bound(snapshot: dict, config) -> Optional[Tuple[float, float]]:
    effective_d = snapshot.get("effective_d")
    d = getattr(config, "d", None)
    if effective_d is None or d is None:
        return None
    if effective_d < d:
        return float(effective_d), float(d)
    return None


#: Name -> rule for the built-ins.
BUILTIN_RULES: Dict[str, AlertRule] = {
    rule.name: rule
    for rule in (
        AlertRule(
            "gain-over-bound",
            _gain_over_bound,
            "running attack gain exceeded the Theorem-2 bound",
        ),
        AlertRule(
            "entropy-flat",
            _entropy_flat,
            "window entropy matches the Theorem-1 uniform-prefix fingerprint",
        ),
        AlertRule(
            "node-overload",
            _node_overload,
            "a node's offered window rate exceeded overload_factor * R/n",
        ),
        AlertRule(
            "degraded-bound",
            _degraded_bound,
            "failures shrank the effective replication choice below d",
        ),
        AlertRule(
            "attribution-concentration",
            _attribution_concentration,
            "one key-prefix bucket dominated a window's traced requests",
        ),
    )
}


class AlertEngine:
    """Evaluates a rule set against window snapshots.

    Parameters
    ----------
    rules:
        The rules to run, in evaluation order.  Defaults to every rule
        in :data:`BUILTIN_RULES`; pass a subset (or custom
        :class:`AlertRule` objects) to specialise.
    """

    def __init__(self, rules: Optional[Sequence[AlertRule]] = None) -> None:
        self.rules: Tuple[AlertRule, ...] = (
            tuple(BUILTIN_RULES.values()) if rules is None else tuple(rules)
        )

    @classmethod
    def from_names(cls, names: Sequence[str]) -> "AlertEngine":
        """Build an engine from built-in rule names."""
        unknown = [n for n in names if n not in BUILTIN_RULES]
        if unknown:
            raise ValueError(
                f"unknown alert rules {unknown}; available: {sorted(BUILTIN_RULES)}"
            )
        return cls([BUILTIN_RULES[n] for n in names])

    def evaluate(self, snapshot: dict, config) -> List[dict]:
        """Run every rule; returns alert records for the firings."""
        alerts: List[dict] = []
        for rule in self.rules:
            outcome = rule.check(snapshot, config)
            if outcome is None:
                continue
            value, threshold = outcome
            alerts.append(
                {
                    "type": "alert",
                    "rule": rule.name,
                    "trial": snapshot.get("trial"),
                    "window": snapshot.get("index"),
                    "t": snapshot.get("t_end"),
                    "value": value,
                    "threshold": threshold,
                }
            )
        return alerts
