"""The Intermediates container produced by the Compute module.

``Intermediates`` holds every computed result an EDA task needs to render its
visualizations — and nothing about how to draw them.  Exposing this object to
users (Section 4.2, second benefit of the Compute/Render split) lets them
re-plot the same numbers with the plotting library of their choice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List

from repro.eda.insights import Insight


@dataclass
class Intermediates:
    """Computed results of one EDA task.

    Attributes
    ----------
    task:
        Which task produced this (e.g. ``"univariate"``, ``"correlation"``).
    columns:
        The columns the task was about (empty for overview tasks).
    items:
        Mapping from visualization name (e.g. ``"histogram"``) to its data.
    stats:
        The task-level statistics table (shown on the Stats tab).
    insights:
        Insights discovered while computing (Section 4.2.2).
    timings:
        Wall-clock seconds per pipeline stage, for the benchmarks.
    meta:
        Anything else the Render module needs (semantic types, row counts).
    """

    task: str
    columns: List[str] = field(default_factory=list)
    items: Dict[str, Any] = field(default_factory=dict)
    stats: Dict[str, Any] = field(default_factory=dict)
    insights: List[Insight] = field(default_factory=list)
    timings: Dict[str, float] = field(default_factory=dict)
    meta: Dict[str, Any] = field(default_factory=dict)

    def __contains__(self, name: object) -> bool:
        return name in self.items

    def __getitem__(self, name: str) -> Any:
        return self.items[name]

    def get(self, name: str, default: Any = None) -> Any:
        """Item lookup with a default, mirroring ``dict.get``."""
        return self.items.get(name, default)

    def __iter__(self) -> Iterator[str]:
        return iter(self.items)

    def visualization_names(self) -> List[str]:
        """Names of the visualizations whose data is present."""
        return list(self.items.keys())

    def insights_for(self, item: str) -> List[Insight]:
        """Insights attached to one visualization."""
        return [insight for insight in self.insights if insight.item == item]

    def add_insights(self, insights: List[Insight]) -> None:
        """Append newly discovered insights."""
        self.insights.extend(insights)

    def summary(self) -> Dict[str, Any]:
        """Small dictionary used by ``__repr__`` and logging."""
        return {
            "task": self.task,
            "columns": self.columns,
            "visualizations": self.visualization_names(),
            "insights": len(self.insights),
        }

    def __repr__(self) -> str:
        return (f"Intermediates(task={self.task!r}, columns={self.columns}, "
                f"items={self.visualization_names()}, insights={len(self.insights)})")
