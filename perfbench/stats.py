"""Small numeric helpers shared by the benchmark's processes.

Nothing here imports the simulator, so the orchestrator (``run.py``)
stays a thin process that never competes with a measured worker.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import statistics

#: BENCHMARK.json naming rules for metric and workload names
_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
#: BENCHMARK.json rules for units
_UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def valid_name(name: str) -> bool:
    """A metric or workload name BENCHMARK.json accepts."""
    return bool(_NAME.match(name))


def valid_unit(unit: str) -> bool:
    """A unit BENCHMARK.json accepts (``ms``, ``s``, ``1/s``, ``count``)."""
    return bool(_UNIT.match(unit))


def percentile(samples: list[float], q: float) -> dict:
    """Nearest-rank ``q``-quantile with its sample accounting.

    Returns ``{"value", "n", "beyond"}``: ``beyond`` is how many
    samples lie strictly above the reported rank, so a p99 over 1000
    samples reports ``beyond == 10``.  ``q == 0.5`` reports the
    interpolated median instead of a rank.
    """
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0 < q < 1:
        raise ValueError(f"quantile {q} outside (0, 1)")
    ordered = sorted(samples)
    n = len(ordered)
    if q == 0.5:
        return {"value": statistics.median(ordered), "n": n, "beyond": n // 2}
    # the epsilon keeps float error (0.9 * 100 > 90) from skipping a rank
    rank = max(1, math.ceil(q * n - 1e-9))
    return {"value": ordered[rank - 1], "n": n, "beyond": n - rank}


def digest(record: dict) -> str:
    """Stable short hash of a JSON-able virtual-time record."""
    canonical = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:20]
