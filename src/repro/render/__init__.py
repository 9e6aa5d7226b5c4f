"""The Render module (component 3 of the paper's back-end, Figure 3).

``render_intermediates`` converts the Compute module's
:class:`~repro.eda.intermediates.Intermediates` into a
:class:`~repro.render.layout.Container`: one tab per visualization, each with
its insight badge and how-to guide.  Each chart kind's items, tab titles, tab
order, how-to keys and renderer are one entry of the chart registry
(:data:`~repro.render.registry.CHART_KINDS`), so the Compute module stays
free of any presentation concerns.
"""

from __future__ import annotations

from typing import List

from repro.eda.config import Config
from repro.eda.intermediates import Intermediates
from repro.render.layout import Container, Panel
from repro.render.registry import Item, chart_kind, how_to_guide, tab_order

__all__ = ["Container", "Panel", "render_intermediates"]


def render_intermediates(intermediates: Intermediates, config: Config,
                         call: str = "plot(df)") -> Container:
    """Render every visualization in *intermediates* into a tabbed Container."""
    width = config.get("render.width")
    height = config.get("render.height")
    max_tabs = config.get("render.max_tabs")
    label = ", ".join(intermediates.columns) or "dataset"

    panels: List[Panel] = []
    for name in tab_order(intermediates.visualization_names()):
        kind = chart_kind(name)
        title = kind.titles.get(name, name.replace("_", " ").title())
        insights = intermediates.insights_for(name)
        body = kind.render(Item(name, title, intermediates[name], label, insights),
                           width, height)
        if body is None:
            continue
        panels.append(Panel(name=name, title=title, body=body, insights=insights,
                            howto=how_to_guide(name, call=call)))
        if len(panels) >= max_tabs:
            break
    title = f"DataPrep.EDA — {call}"
    return Container(intermediates, panels, call=call, title=title)
