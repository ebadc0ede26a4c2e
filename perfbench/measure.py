"""Sample statistics, peak memory and the host fingerprint."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

from perfbench.spec import TAIL_MIN_BEYOND, TAIL_PERCENTILES


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample covering ``pct``."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(samples: Sequence[float]) -> Optional[Tuple[float, float]]:
    """``(value, pct)`` at the highest candidate percentile that leaves at
    least ``TAIL_MIN_BEYOND`` samples beyond it; ``None`` when too few."""
    count = len(samples)
    for pct in TAIL_PERCENTILES:
        beyond = count - math.ceil(pct / 100.0 * count)
        if beyond >= TAIL_MIN_BEYOND:
            return percentile(samples, pct), pct
    return None


def median(samples: Sequence[float]) -> float:
    return statistics.median(samples)


def error_rate(failed: int, attempted: int) -> float:
    return failed / attempted if attempted else 1.0


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def source_digest(root: Path) -> str:
    """SHA-256 over ``src/`` — identifies the code in a checkout that is
    not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _commit(root: Path) -> Optional[str]:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def fingerprint(root: Path) -> Dict[str, object]:
    """The host and code a measurement was taken on."""
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "os": platform.platform(),
        "commit": _commit(root),
        "source_digest": source_digest(root),
    }
