"""Output verification: a faster wrong answer is a failure, not a gain.

Two levels.  Once per run, every op's computed values are compared against
an oracle — the same source resolved with the ``synchronous`` scheduler, the
chunk sidecar off and the task cache emptied before every op, so the
comparison spans scheduler × sidecar state × cross-call reuse.  Every
iteration, cheap invariants
check that each work-avoidance mechanism the workload was chosen for
actually fired (see :meth:`perfbench.workloads.Session.invariants`).
"""

from __future__ import annotations

import math
from typing import Any, Dict, List

import numpy as np

#: ``memory_bytes`` legitimately differs between cache states: a column
#: loaded from the binary sidecar is a memmap over dictionary codes, one
#: decoded from CSV an object array, and the figure reports the carrier.
EXCLUDED_KEYS = frozenset({"memory_bytes"})

REL_TOL = 1e-6
ABS_TOL = 1e-9


def differences(actual: Any, expected: Any, path: str = "items",
                limit: int = 5) -> List[str]:
    """Paths at which *actual* disagrees with *expected* (at most *limit*)."""
    found: List[str] = []
    _walk(actual, expected, path, found, limit)
    return found


def _walk(actual: Any, expected: Any, path: str, found: List[str],
          limit: int) -> None:
    if len(found) >= limit:
        return
    if isinstance(expected, np.ndarray) or isinstance(actual, np.ndarray):
        actual, expected = np.asarray(actual).tolist(), np.asarray(expected).tolist()
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            found.append(f"{path}: type {type(actual).__name__}")
            return
        keys = set(expected) - EXCLUDED_KEYS
        if set(actual) - EXCLUDED_KEYS != keys:
            found.append(f"{path}: keys {sorted(map(str, set(actual) ^ set(expected)))}")
            return
        for key in keys:
            _walk(actual[key], expected[key], f"{path}.{key}", found, limit)
        return
    if isinstance(expected, (list, tuple)):
        if not isinstance(actual, (list, tuple)) or len(actual) != len(expected):
            found.append(f"{path}: length")
            return
        for index, (left, right) in enumerate(zip(actual, expected)):
            _walk(left, right, f"{path}[{index}]", found, limit)
        return
    if isinstance(expected, (float, np.floating)) or \
            isinstance(actual, (float, np.floating)):
        try:
            left, right = float(actual), float(expected)
        except (TypeError, ValueError):
            found.append(f"{path}: {actual!r} != {expected!r}")
            return
        if math.isnan(left) and math.isnan(right):
            return
        if not math.isclose(left, right, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            found.append(f"{path}: {left!r} != {right!r}")
        return
    if hasattr(expected, "__dict__") and type(actual) is type(expected):
        _walk(vars(actual), vars(expected), path, found, limit)
        return
    if actual != expected:
        found.append(f"{path}: {actual!r} != {expected!r}")


def comparable(result: Any) -> Dict[str, Any]:
    """The values of one op's result the oracle comparison covers.

    A ``Report`` contributes every section's items plus the interaction
    samples; an ``Intermediates`` its items and task-level statistics.
    """
    if hasattr(result, "sections"):
        return {"sections": {name: section.items
                             for name, section in result.sections.items()},
                "interactions": result.interactions}
    return {"items": result.items, "stats": result.stats}
