"""``create_report(df)``: the profile-report functionality of DataPrep.EDA.

The report has the same five sections as the baseline profiler (Overview,
Variables, Interactions, Correlations, Missing Values) so the two tools are
directly comparable — this is the workload of Table 2 and Figure 6(b).

Unlike the baseline, every section is computed through the shared
:class:`~repro.eda.compute.base.ComputeContext`: the per-column summaries,
histograms, correlation partials and missing-value mask all reuse the same
partition scans inside one engine, which is where the measured speedup comes
from.
"""

from __future__ import annotations

import html as html_module
import time
from dataclasses import dataclass, field
from itertools import compress
from typing import Any, Dict, List, Mapping, Optional

from repro.eda.compute import (
    ComputeContext,
    compute_correlation_overview,
    compute_missing_overview,
    compute_overview,
)
from repro.eda.config import Config
from repro.eda.intermediates import Intermediates
from repro.errors import EDAError, FrameError
from repro.frame.frame import DataFrame
from repro.frame.source import as_source
from repro.render import render_intermediates
from repro.render.charts import render_scatter


@dataclass
class Report:
    """A generated profile report.

    Besides the rendered sections, the report keeps the per-section
    wall-clock ``timings`` and the engine's ``execution_reports`` — one
    :class:`~repro.graph.engines.ExecutionReport` per resolved graph stage,
    whose ``cache_hits`` field shows how much work the cross-call
    intermediate cache (``cache.enabled``) avoided on repeated runs.  The
    four ``*_stats`` dicts are views of one record, the field-wise sum of
    those reports: an ``enabled`` flag, the planner-only facts, and the
    counters of that name.
    """

    title: str
    sections: Dict[str, Intermediates]
    interactions: Dict[str, Any] = field(default_factory=dict)
    timings: Dict[str, float] = field(default_factory=dict)
    config: Optional[Config] = None
    execution_reports: List[Any] = field(default_factory=list)
    #: The projection planner's counters for the whole report (partition
    #: tasks built full-width vs. projected, columns pruned) — see
    #: :meth:`~repro.eda.compute.base.ComputeContext.projection_stats`.
    projection_stats: Dict[str, Any] = field(default_factory=dict)
    #: Predicate-pushdown counters for the whole report (the pushed filter
    #: spec, chunks the zone maps skipped, rows filtered inside the parse)
    #: — see :meth:`~repro.eda.compute.base.ComputeContext.predicate_stats`.
    predicate_stats: Dict[str, Any] = field(default_factory=dict)
    #: Parsed-chunk disk-sidecar counters for the whole report (chunk parses
    #: served from the binary sidecar, parses that decoded CSV, CSV bytes
    #: avoided) — see
    #: :meth:`~repro.eda.compute.base.ComputeContext.sidecar_stats`.
    sidecar_stats: Dict[str, Any] = field(default_factory=dict)
    #: Incremental-refresh counters for the whole report (parse chunks whose
    #: per-chunk-stamp cache keys answered without running, chunks executed,
    #: file bytes those executions read) — see
    #: :meth:`~repro.eda.compute.base.ComputeContext.incremental_stats`.
    incremental_stats: Dict[str, Any] = field(default_factory=dict)
    #: The input handle the report was computed from (pre-``where``), kept
    #: so :meth:`refresh` can re-resolve it against the current file state.
    source: Any = None
    #: The ``where=`` filter the report was computed with, re-applied by
    #: :meth:`refresh`.
    where: Any = None

    def refresh(self) -> "Report":
        """Recompute this report against the source's current on-disk state.

        Re-resolves the input handle (:func:`repro.frame.source.refresh_input`)
        and regenerates the report under the same config, title and
        ``where`` filter.  When the underlying CSVs only *grew*, the old
        chunks keep their per-chunk content stamps — so their partition
        tasks, sketch states and tree-combine ancestors answer from the
        cross-call cache and only the appended chunks execute; the refreshed
        report's :attr:`incremental_stats` records ``chunks_reused`` /
        ``chunks_new`` / ``bytes_reparsed``.  Any other change (shrink,
        mutation) degrades safely to a full recompute.  The original report
        is left untouched; the refreshed one is returned.
        """
        from repro.frame.source import refresh_input
        overrides: Optional[Dict[str, Any]] = None
        if self.config is not None:
            overrides = {key: self.config.values[key]
                         for key in self.config.provided}
        return create_report(refresh_input(self.source), config=overrides,
                             title=self.title, where=self.where)

    @property
    def section_names(self) -> List[str]:
        """Names of the report sections, in display order."""
        return list(self.sections.keys())

    @property
    def total_seconds(self) -> float:
        """Total wall-clock time spent computing the report."""
        return sum(self.timings.values())

    def insights(self) -> List[Any]:
        """All insights across all sections."""
        collected = []
        for intermediates in self.sections.values():
            collected.extend(intermediates.insights)
        return collected

    def to_html(self) -> str:
        """Render the full report as an HTML document body."""
        config = self.config or Config.from_user()
        parts = [f"<h1>{html_module.escape(self.title)}</h1>"]
        for name, intermediates in self.sections.items():
            parts.append(f"<h2>{html_module.escape(name)}</h2>")
            container = render_intermediates(intermediates, config,
                                             call="create_report(df)")
            parts.append(container.to_html())
        if self.interactions:
            parts.append("<h2>Interactions</h2>")
            for pair, data in self.interactions.items():
                parts.append(render_scatter(data, config.get("render.width"),
                                            config.get("render.height"),
                                            title=f"Interaction: {pair}"))
        return "\n".join(parts)

    def save(self, path: str) -> str:
        """Write a standalone HTML report to *path* and return the path."""
        document = ("<!DOCTYPE html><html><head><meta charset='utf-8'>"
                    f"<title>{html_module.escape(self.title)}</title></head>"
                    f"<body>{self.to_html()}</body></html>")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(document)
        return path

    def __repr__(self) -> str:
        return (f"Report(title={self.title!r}, sections={self.section_names}, "
                f"seconds={self.total_seconds:.2f})")


def create_report(df: DataFrame, config: Optional[Mapping[str, Any]] = None,
                  title: Optional[str] = None, where: Any = None) -> Report:
    """Generate a full profile report of *df*.

    The report contains the Overview, Variables, Interactions, Correlations
    and Missing Values sections of the baseline profiler, computed through
    the shared lazy pipeline: one :class:`ComputeContext` feeds every
    section, so partition scans are shared across sections, and — because
    ``cache.enabled`` defaults to True — with the intermediates computed by
    any earlier ``plot*`` call on the same frame in this process.

    Parameters
    ----------
    df:
        The DataFrame to profile — or any
        :class:`~repro.frame.source.FrameSource`, e.g. a
        :func:`repro.scan_csv` handle over one file, a list of files or a
        glob pattern (the report then streams with bounded memory).
    config:
        Dotted-key overrides, e.g. ``{"hist.bins": 25, "cache.enabled":
        False, "cache.max_bytes": 64 * 1024 * 1024}``.  See
        :func:`repro.eda.config.available_config_keys`.  Over a streaming
        scan, ``{"compute.scheduler": "process"}`` runs the chunk parse +
        sketch work on a multiprocess pool (``compute.max_workers``
        workers) for true multi-core scaling.
    title:
        Report title (defaults to the ``report.title`` config value).
    where:
        Optional row filter applied before every section, exactly as in
        :func:`repro.eda.api.plot` — e.g. ``where=("price", ">", 0)``.
        Pushed-down filters stream with bounded memory and skip chunks via
        zone maps; the resulting counters land in ``Report.predicate_stats``.
    """
    try:
        as_source(df)   # any FrameSource: DataFrame, scan_csv handle, custom
    except FrameError as error:
        raise EDAError(f"create_report expects an EDA input: {error}") from None
    from repro.eda.api import _apply_where
    original = df
    df = _apply_where(df, where)
    cfg = Config.from_user(config)
    title = title or cfg.get("report.title")
    timings: Dict[str, float] = {}
    context = ComputeContext(df, cfg)

    # The context is shared across sections, so each finish() would attach
    # the cumulative report list; re-slice per section so summing over
    # sections never counts a graph stage twice.
    def section_reports(start: int, intermediates: Intermediates) -> Intermediates:
        intermediates.meta["execution_reports"] = list(context.reports[start:])
        return intermediates

    started = time.perf_counter()
    mark = len(context.reports)
    overview = section_reports(mark, compute_overview(df, cfg, context=context))
    timings["overview_and_variables"] = time.perf_counter() - started

    started = time.perf_counter()
    interactions = _interactions(df, cfg, context)
    timings["interactions"] = time.perf_counter() - started

    sections: Dict[str, Intermediates] = {"Overview": overview}

    started = time.perf_counter()
    if len(context.numerical_columns()) >= 2:
        mark = len(context.reports)
        sections["Correlations"] = section_reports(
            mark, compute_correlation_overview(df, cfg, context=context))
    timings["correlations"] = time.perf_counter() - started

    started = time.perf_counter()
    mark = len(context.reports)
    sections["Missing Values"] = section_reports(
        mark, compute_missing_overview(df, cfg, context=context))
    timings["missing_values"] = time.perf_counter() - started

    return Report(title=title, sections=sections, interactions=interactions,
                  timings=timings, config=cfg,
                  execution_reports=list(context.reports),
                  projection_stats=context.projection_stats(),
                  predicate_stats=context.predicate_stats(),
                  sidecar_stats=context.sidecar_stats(),
                  incremental_stats=context.incremental_stats(),
                  source=original, where=where)


def _interactions(df: DataFrame, config: Config,
                  context: ComputeContext) -> Dict[str, Any]:
    """Pairwise scatter samples of the leading numerical columns.

    One shared row sample feeds every pair, mirroring how the real system
    shares the sampling computation across the Interactions section.
    """
    numerical = context.numerical_columns()[
        :config.get("report.interactions_max_columns")]
    if len(numerical) < 2:
        return {}
    resolved = context.resolve(
        {"sample": context.sample(numerical, config.get("scatter.sample_size"))},
        stage="graph")
    sample = resolved["sample"]

    # Each column is boxed into python floats once; its pairs select from
    # that list, so a report holds one float object per sampled value, not
    # one per value per pair (36 pairs of 9 columns: 0.3 MB instead of 2.3).
    values = {name: sample.column(name).to_numpy().astype(float).tolist()
              for name in numerical}
    present = {name: sample.column(name).notna() for name in numerical}
    interactions: Dict[str, Any] = {}
    for index, first in enumerate(numerical):
        for second in numerical[index + 1:]:
            keep = (present[first] & present[second]).tolist()
            interactions[f"{first} x {second}"] = {
                "x": list(compress(values[first], keep)),
                "y": list(compress(values[second], keep)),
                "x_label": first,
                "y_label": second,
            }
    return interactions
