"""Report generation (the ``create_report`` functionality compared in Table 2).

``create_report(df)`` computes the five profiler sections through one shared
:class:`~repro.eda.compute.base.ComputeContext`, so partition scans are
shared *across sections* and — via the cross-call intermediate cache
(``cache.enabled``, default True; budget ``cache.max_bytes``) — with any
earlier ``plot*`` call on the same frame in this process.  The returned
:class:`~repro.report.report.Report` carries per-section ``timings`` and the
``execution_reports`` whose ``cache_hits`` field quantifies the avoided
work.  Pass ``config={"cache.enabled": False}`` to opt out.
"""

from repro.report.report import Report, create_report

__all__ = ["Report", "create_report"]
