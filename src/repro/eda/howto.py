"""The how-to guide component (Section 4.1, part E of Figure 1).

Every visualization DataPrep.EDA produces carries a small guide describing
which config keys customize it and a copy-pasteable example.  The registry
below maps visualization names to their relevant config keys; the Render
module turns entries into the pop-up panel, and ``how_to_guide()`` exposes
the same information programmatically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.eda.config import DEFAULTS

#: visualization name -> config keys that customize it.
GUIDE_KEYS: Dict[str, List[str]] = {
    "histogram": ["hist.bins", "hist.auto_bins"],
    "kde_plot": ["kde.grid_points"],
    "qq_plot": ["qq.points"],
    "box_plot": ["box.whisker", "box.max_groups"],
    "bar_chart": ["bar.top_words"],
    "pie_chart": ["pie.slices"],
    "word_frequencies": ["wordfreq.top_words", "wordfreq.lowercase"],
    "scatter_plot": ["scatter.sample_size"],
    "hexbin_plot": ["hexbin.gridsize"],
    "binned_box_plot": ["binnedbox.bins"],
    "nested_bar_chart": ["nested.max_categories"],
    "stacked_bar_chart": ["nested.max_categories"],
    "heat_map": ["heatmap.max_categories"],
    "multi_line_chart": ["line.max_groups", "line.bins"],
    "correlation_matrix": ["correlation.methods", "insight.correlation.threshold"],
    "correlation_scatter": ["correlation.scatter_sample_size"],
    "missing_bar_chart": ["insight.missing.threshold"],
    "missing_spectrum": ["missing.spectrum_bins"],
    "nullity_correlation": [],
    "nullity_dendrogram": [],
    "missing_impact": ["missing.bins"],
    "stats": ["insight.missing.threshold", "insight.skewness.threshold",
              "insight.high_cardinality.threshold"],
}


@dataclass
class HowToEntry:
    """The how-to guide content for one visualization."""

    visualization: str
    keys: List[str]
    defaults: Dict[str, object]
    example: str

    def as_text(self) -> str:
        """Render the guide as plain text (used in reports and the API)."""
        lines = [f"How to customize the {self.visualization.replace('_', ' ')}:"]
        if not self.keys:
            lines.append("  (this visualization has no tunable parameters)")
            return "\n".join(lines)
        for key in self.keys:
            lines.append(f"  {key!r}: default {self.defaults[key]!r}")
        lines.append(f"  example: {self.example}")
        return "\n".join(lines)


def how_to_guide(visualization: str,
                 call: str = 'plot(df, "col")') -> Optional[HowToEntry]:
    """The how-to guide entry for one visualization, or None if unknown."""
    keys = GUIDE_KEYS.get(visualization)
    if keys is None:
        return None
    defaults = {key: DEFAULTS[key] for key in keys}
    if keys:
        first = keys[0]
        example_value = _example_value(DEFAULTS[first])
        example = f'{call[:-1]}, config={{"{first}": {example_value}}})'
    else:
        example = call
    return HowToEntry(visualization=visualization, keys=keys,
                      defaults=defaults, example=example)


def guides_for(visualizations: List[str],
               call: str = 'plot(df, "col")') -> Dict[str, HowToEntry]:
    """How-to guides for every visualization in a container."""
    guides = {}
    for name in visualizations:
        entry = how_to_guide(name, call=call)
        if entry is not None:
            guides[name] = entry
    return guides


def _example_value(default: object) -> str:
    if isinstance(default, bool):
        return "False" if default else "True"
    if isinstance(default, int):
        return str(default * 2)
    if isinstance(default, float):
        return str(default)
    if isinstance(default, tuple):
        return repr(list(default[:1]))
    return repr(default)
