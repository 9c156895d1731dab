"""Schema-versioned provenance manifests for campaign runs.

Every campaign execution produces one manifest dict — what ran (the
campaign spec and each expanded scenario), what came out (the engines'
plain-data stats), and where (git SHA, host, timestamp) — validated by
a hard-failing checker so downstream tooling never grinds on records it
does not understand.

Provenance fields are genuinely run-specific, so determinism tests and
the serial-vs-parallel identity gate compare :func:`deterministic_view`
instead: the manifest minus timestamp/git/host/workers.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Union

from .spec import CampaignSpec, ScenarioSpec
from ..exceptions import ScenarioValidationError

__all__ = [
    "SCENARIO_SCHEMA_VERSION",
    "campaign_manifest",
    "validate_campaign_manifest",
    "deterministic_view",
    "write_manifest",
    "git_sha",
    "host_info",
]

#: Campaign manifest format version.  Bump on any incompatible change
#: and teach :func:`validate_campaign_manifest` about the migration.
SCENARIO_SCHEMA_VERSION = 1

_REQUIRED = {
    "schema": int,
    "campaign": str,
    "spec": dict,
    "grid_shape": list,
    "scenarios": list,
    "workers": int,
    "timestamp": (int, float),
    "host": dict,
}

_REQUIRED_SCENARIO = {
    "name": str,
    "spec": dict,
    "stats": dict,
}


def git_sha(cwd: Optional[Path] = None) -> Optional[str]:
    """Current commit SHA, or ``None`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(cwd) if cwd else None,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and len(sha) == 40 else None


def host_info() -> Dict[str, object]:
    """Machine provenance recorded with every run."""
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": sys.platform,
    }


def campaign_manifest(
    campaign: CampaignSpec,
    scenarios: List[ScenarioSpec],
    stats: List[dict],
    workers: int,
) -> dict:
    """Assemble the manifest for one executed campaign."""
    return {
        "schema": SCENARIO_SCHEMA_VERSION,
        "campaign": campaign.name,
        "spec": campaign.to_dict(),
        "grid_shape": list(campaign.grid_shape),
        "scenarios": [
            {"name": spec.name, "spec": spec.to_dict(), "stats": dict(s)}
            for spec, s in zip(scenarios, stats)
        ],
        "workers": workers,
        "timestamp": time.time(),
        "git_sha": git_sha(),
        "host": host_info(),
    }


def validate_campaign_manifest(record: object) -> dict:
    """Check a manifest dict against the schema; returns it on success.

    Raises :class:`~repro.exceptions.ScenarioValidationError` on any
    violation — unknown schema version, missing field, wrong type.
    """
    if not isinstance(record, dict):
        raise ScenarioValidationError(
            f"manifest: expected a dict, got {type(record).__name__}",
            path="manifest",
        )
    version = record.get("schema")
    if version != SCENARIO_SCHEMA_VERSION:
        raise ScenarioValidationError(
            f"manifest.schema: unsupported campaign manifest schema "
            f"{version!r} (this build reads schema "
            f"{SCENARIO_SCHEMA_VERSION})",
            path="manifest.schema",
        )
    for name, types in _REQUIRED.items():
        if name not in record:
            raise ScenarioValidationError(
                f"manifest.{name}: missing required field", path=f"manifest.{name}"
            )
        value = record[name]
        if isinstance(value, bool) or not isinstance(value, types):
            expected = (
                " or ".join(t.__name__ for t in types)
                if isinstance(types, tuple)
                else types.__name__
            )
            raise ScenarioValidationError(
                f"manifest.{name}: must be {expected}, "
                f"got {type(value).__name__}",
                path=f"manifest.{name}",
            )
    for i, scenario in enumerate(record["scenarios"]):
        where = f"manifest.scenarios[{i}]"
        if not isinstance(scenario, dict):
            raise ScenarioValidationError(
                f"{where}: expected a dict, got {type(scenario).__name__}",
                path=where,
            )
        for name, types in _REQUIRED_SCENARIO.items():
            if not isinstance(scenario.get(name), types):
                raise ScenarioValidationError(
                    f"{where}.{name}: must be {types.__name__}, "
                    f"got {type(scenario.get(name)).__name__}",
                    path=f"{where}.{name}",
                )
    return record


def deterministic_view(record: dict) -> dict:
    """The manifest minus run-specific provenance.

    This is what the golden fixtures pin and what the serial-vs-parallel
    identity test compares byte-for-byte.
    """
    validate_campaign_manifest(record)
    view = {
        key: record[key]
        for key in ("schema", "campaign", "spec", "grid_shape", "scenarios")
    }
    return json.loads(json.dumps(view, sort_keys=True, allow_nan=False))


def write_manifest(record: dict, path: Union[str, Path]) -> Path:
    """Validate and write one manifest as pretty sorted JSON."""
    validate_campaign_manifest(record)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(record, indent=2, sort_keys=True, allow_nan=False) + "\n"
    )
    return path
