"""Pure functions behind the reported numbers: percentiles, spans, bounds.

Nothing here imports the program under test or touches a clock, so the rules
are unit-tested in milliseconds (``perfbench/test_harness_units.py``).
"""

from __future__ import annotations

import math
import statistics
from typing import Any, Dict, Iterable, List, Optional, Sequence

def percentile(samples: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (``pct`` in [0, 100]) of *samples*."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def quartile_spread(samples: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median — the driver's measure of how steady a set of values is."""
    if len(samples) < 2:
        return 0.0
    first, median, third = statistics.quantiles(samples, n=4)
    return (third - first) / median if median else 0.0


def supported_percentile(n_samples: int) -> Optional[float]:
    """Highest whole percentile (at most 99) with ten samples beyond it.

    A percentile is only as good as the samples beyond it (choosing-metrics
    guide, section 1).  None when even the median is not supported (fewer
    than twenty samples).
    """
    if n_samples < 20:
        return None
    return float(min(99, math.floor(100.0 * (n_samples - 10) / n_samples)))


def span_self_times(spans: Iterable[Dict[str, Any]]) -> Dict[int, float]:
    """Self time per span id: duration minus the union of its children.

    Children are clipped to the parent's interval and overlapping children
    (parallel work) are merged before subtracting, so self time is never
    negative and never double-counts a covered instant.
    """
    spans = list(spans)
    children: Dict[Optional[int], List[Dict[str, Any]]] = {}
    for span in spans:
        children.setdefault(span.get("parent"), []).append(span)
    result: Dict[int, float] = {}
    for span in spans:
        start, end = span["start"], span["end"]
        covered = 0.0
        cursor = start
        for child in sorted(children.get(span["id"], ()), key=lambda s: s["start"]):
            low, high = max(child["start"], cursor), min(child["end"], end)
            if high > low:
                covered += high - low
                cursor = high
        result[span["id"]] = max(0.0, (end - start) - covered)
    return result


def relative_gap(one: float, two: float) -> float:
    """How far apart two measurements of the same code are, as a share of
    the smaller: symmetric, so it does not matter which run was the slow one.
    Two zeros agree; a zero and a non-zero never do.
    """
    low, high = sorted((abs(one), abs(two)))
    if low == 0:
        return 0.0 if high == 0 else math.inf
    return (high - low) / low
