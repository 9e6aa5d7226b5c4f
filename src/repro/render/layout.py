"""The tabbed layout container returned by every ``plot*`` call.

The paper embeds Bokeh figures into a custom HTML/JS layout with tabs,
insight badges ("!") and how-to-guide pop-ups ("?").  :class:`Container`
reproduces that layout: each visualization lives on its own tab; insights and
how-to guides are attached per panel.
"""

from __future__ import annotations

import html as html_module
from dataclasses import dataclass, field
from typing import List, Optional

from repro.eda.insights import Insight
from repro.eda.intermediates import Intermediates
from repro.render.registry import HowToEntry

_STYLE = """
<style>
.repro-container { font-family: Helvetica, Arial, sans-serif; color: #222; }
.repro-tabs { display: flex; flex-wrap: wrap; border-bottom: 2px solid #1f77b4;
              margin: 0; padding: 0; list-style: none; }
.repro-tabs label { padding: 6px 14px; cursor: pointer; background: #f2f5f8;
                    border: 1px solid #d5dde5; border-bottom: none;
                    border-radius: 4px 4px 0 0; margin-right: 2px; font-size: 13px; }
.repro-panel { display: none; padding: 12px; border: 1px solid #d5dde5;
               border-top: none; }
.repro-container input.repro-tab-state { display: none; }
.insight-badge { color: #fff; background: #d62728; border-radius: 50%;
                 padding: 0 6px; font-size: 11px; margin-left: 6px; }
.howto { margin-top: 8px; font-size: 12px; }
.howto summary { cursor: pointer; color: #1f77b4; }
.howto pre { background: #f7f7f7; padding: 6px; border-radius: 4px; }
.insight-list { font-size: 12px; color: #9a3324; margin: 6px 0 0 0;
                padding-left: 18px; }
.stats-table table { border-collapse: collapse; font-size: 12px; }
.stats-table td { border: 1px solid #e0e0e0; padding: 3px 10px; }
.stats-table tr.insight-row td { background: #fde8e8; }
.repro-progress { font-size: 11px; color: #777; margin: 4px 0; }
</style>
"""


def save_page(path: str, title: str, body: str) -> str:
    """Write *body* as a standalone HTML document titled *title* to *path*
    and return the path."""
    document = ("<!DOCTYPE html><html><head><meta charset='utf-8'>"
                f"<title>{html_module.escape(title)}</title></head>"
                f"<body>{body}</body></html>")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(document)
    return path


@dataclass
class Panel:
    """One tab of the container: a chart plus its insights and how-to guide."""

    name: str
    title: str
    body: str
    insights: List[Insight] = field(default_factory=list)
    howto: Optional[HowToEntry] = None

    def to_html(self, container_id: str, index: int, checked: bool) -> str:
        """Render the tab label + panel body."""
        badge = (f'<span class="insight-badge" title="'
                 f'{html_module.escape("; ".join(str(i) for i in self.insights))}">!</span>'
                 if self.insights else "")
        insight_items = "".join(f"<li>{html_module.escape(str(insight))}</li>"
                                for insight in self.insights)
        insight_block = (f'<ul class="insight-list">{insight_items}</ul>'
                         if insight_items else "")
        howto_block = ""
        if self.howto is not None:
            howto_block = (
                '<details class="howto"><summary>? how to customize</summary>'
                f"<pre>{html_module.escape(self.howto.as_text())}</pre></details>")
        input_id = f"{container_id}-tab-{index}"
        checked_attr = " checked" if checked else ""
        return (
            f'<input class="repro-tab-state" type="radio" name="{container_id}" '
            f'id="{input_id}"{checked_attr}>'
            f'<label for="{input_id}">{html_module.escape(self.title)}{badge}</label>'
            f'<div class="repro-panel" data-panel="{html_module.escape(self.name)}">'
            f"{self.body}{insight_block}{howto_block}</div>")


class Container:
    """Rendered output of one EDA task: tabs of charts, stats and guides."""

    _counter = 0

    def __init__(self, intermediates: Intermediates, panels: List[Panel],
                 call: str, title: Optional[str] = None):
        Container._counter += 1
        self._id = f"repro-{Container._counter}"
        self.intermediates = intermediates
        self.panels = panels
        self.call = call
        self.title = title or call

    # ------------------------------------------------------------------ #
    # Introspection helpers (used heavily by tests and examples)
    # ------------------------------------------------------------------ #
    @property
    def tab_names(self) -> List[str]:
        """Machine names of the tabs, in display order."""
        return [panel.name for panel in self.panels]

    def panel(self, name: str) -> Panel:
        """Look up a panel by machine name."""
        for candidate in self.panels:
            if candidate.name == name:
                return candidate
        raise KeyError(f"no panel named {name!r}; available: {self.tab_names}")

    @property
    def insights(self) -> List[Insight]:
        """All insights across all panels."""
        return list(self.intermediates.insights)

    # ------------------------------------------------------------------ #
    # Output
    # ------------------------------------------------------------------ #
    def to_html(self) -> str:
        """Render the container as a standalone HTML fragment."""
        tabs = "".join(panel.to_html(self._id, index, checked=(index == 0))
                       for index, panel in enumerate(self.panels))
        # Pure-CSS tabs: the checked radio button shows its sibling panel.
        panel_rules = "\n".join(
            f"#{self._id}-tab-{index}:checked ~ div[data-panel="
            f"'{panel.name}'] {{ display: block; }}"
            for index, panel in enumerate(self.panels))
        timing = self.intermediates.timings
        timing_line = ""
        if timing:
            total = sum(timing.values())
            timing_line = (f'<div class="repro-progress">computed in '
                           f'{total:.2f}s ({", ".join(f"{k}: {v:.2f}s" for k, v in timing.items())})</div>')
        return (
            f"{_STYLE}<style>{panel_rules}</style>"
            f'<div class="repro-container" id="{self._id}">'
            f"<h3>{html_module.escape(self.title)}</h3>{timing_line}"
            f'<div class="repro-tabs">{tabs}</div></div>')

    def _repr_html_(self) -> str:
        return self.to_html()

    def save(self, path: str) -> str:
        """Write a standalone HTML document to *path* and return the path."""
        return save_page(path, self.title, self.to_html())

    def show(self) -> None:
        """Print a text summary (stand-in for displaying in a notebook)."""
        print(f"{self.title}: tabs = {self.tab_names}, "
              f"insights = {len(self.insights)}")

    def __repr__(self) -> str:
        return (f"Container(call={self.call!r}, tabs={self.tab_names}, "
                f"insights={len(self.insights)})")
