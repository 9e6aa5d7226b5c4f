"""The harness-owned span recorder: spans live in memory, written at exit.

Spans are cut from *outside* the program — around calls into each module's
public functions — because spans inside ``src/`` are a later change.  A
disabled recorder costs one attribute check per ``span()`` so the timed
(tracing-off) iterations and the traced one share the same code.
"""

from __future__ import annotations

import contextlib
import json
import time
from typing import Any, Dict, Iterator, List, Optional


class Recorder:
    """Nested timed spans: ``name, start, end, parent, workload, iteration``."""

    def __init__(self, workload: str):
        self.workload = workload
        self.enabled = False
        self.iteration = -1
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Optional[Dict[str, Any]]]:
        """Time the body as a child of the innermost open span."""
        if not self.enabled:
            yield None
            return
        record = self._open(name, time.perf_counter())
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def add_child(self, parent: Optional[Dict[str, Any]], name: str,
                  seconds: float) -> None:
        """Attach a duration the program itself reported (e.g. a stage timer
        in ``Intermediates.timings``) as a child.  Its true position inside
        the parent is unknown from outside, so reported children are laid
        end to end from the parent's start — enough for self-time
        subtraction, which only needs them not to overlap.
        """
        if parent is None:
            return
        start = max([span["end"] for span in self.spans
                     if span["parent"] == parent["id"]] + [parent["start"]])
        record = self._open(name, start, parent["id"])
        record["end"] = start + float(seconds)

    def _open(self, name: str, start: float,
              parent: Optional[int] = None) -> Dict[str, Any]:
        if parent is None and self._stack:
            parent = self._stack[-1]
        record = {"id": len(self.spans), "name": name, "start": start,
                  "end": start, "parent": parent, "workload": self.workload,
                  "iteration": self.iteration}
        self.spans.append(record)
        return record

    def dump(self, path: str, header: Dict[str, Any]) -> None:
        """Write every recorded span (and the run header) as one JSON file."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"header": header, "spans": self.spans}, handle)
