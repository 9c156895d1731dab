"""Run provenance shared by bench records and campaign manifests.

A bench's ``run`` block (:mod:`repro.perf.harness`) and a campaign
manifest (:mod:`repro.scenario.manifest`) both say where they ran (the
git SHA and the host), and a bench's block also reports the process
RSS high-water mark.  Nothing here runs under ``tracemalloc``: timings
are never taken under memory tracing.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Dict, Optional

__all__ = [
    "git_sha",
    "host_info",
    "peak_rss_bytes",
]


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


def peak_rss_bytes() -> Optional[int]:
    """Process RSS high-water mark in bytes (``None`` where unsupported).

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; normalise to
    bytes so records compare across hosts.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if peak <= 0:
        return None
    return int(peak) if sys.platform == "darwin" else int(peak) * 1024
