"""The Config Manager (component 1 of the paper's back-end, Figure 3).

Users customize DataPrep.EDA by passing a flat dictionary of dotted keys,
e.g. ``plot(df, "price", config={"hist.bins": 50})``.  The Config Manager
validates the keys (with "did you mean" suggestions), fills in defaults for
everything else, and produces a :class:`Config` object that is passed through
the Compute and Render modules so individual functions never juggle dozens of
keyword arguments.
"""

from __future__ import annotations

import copy
import os
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

from repro.errors import ConfigError, _closest
from repro.frame.io import DEFAULT_BUDGET_BYTES as _DEFAULT_BUDGET_BYTES
from repro.frame.io import DEFAULT_CHUNK_ROWS as _DEFAULT_CHUNK_ROWS
from repro.frame.sidecar import DEFAULT_DISK_BYTES as _SIDECAR_DEFAULT_BYTES
from repro.graph.cache import DEFAULT_MAX_BYTES as _CACHE_DEFAULT_MAX_BYTES
from repro.graph.engines import available_engines

#: Default values for every configurable parameter, grouped by component.
#: The how-to guide surfaces these keys to the user (Section 4.1).
DEFAULTS: Dict[str, Any] = {
    # Histogram
    "hist.bins": 50,
    "hist.auto_bins": False,
    # Kernel density estimate plot
    "kde.grid_points": 200,
    "kde.bins": 256,
    # Normal Q-Q plot
    "qq.points": 100,
    # Box plot
    "box.whisker": 1.5,
    "box.max_groups": 10,
    # Bar / pie chart for categorical columns
    "bar.top_words": 10,
    "bar.sort_descending": True,
    "pie.slices": 6,
    # Word statistics for categorical columns
    "wordfreq.top_words": 10,
    "wordfreq.lowercase": True,
    # Scatter / hexbin for numerical-numerical bivariate analysis
    "scatter.sample_size": 1000,
    "hexbin.gridsize": 20,
    "binnedbox.bins": 10,
    # Nested / stacked bar charts and heat map for two categorical columns
    "nested.max_categories": 10,
    "stacked.max_categories": 10,
    "heatmap.max_categories": 20,
    # Multi-line chart for categorical-numerical bivariate analysis
    "line.max_groups": 10,
    "line.bins": 20,
    "line.aggregate": "mean",
    # Correlation analysis
    "correlation.methods": ("pearson", "spearman", "kendall"),
    "correlation.kendall_max_rows": 10000,
    "correlation.scatter_sample_size": 1000,
    "correlation.top_k": 5,
    # Missing-value analysis
    "missing.spectrum_bins": 32,
    "missing.bins": 30,
    "missing.quantiles": 100,
    # Insight thresholds (Section 4.2.2: each insight has its own threshold)
    "insight.missing.threshold": 0.1,
    "insight.duplicates.threshold": 0.05,
    "insight.similar_distribution.alpha": 0.05,
    "insight.uniform.alpha": 0.05,
    "insight.normal.alpha": 0.05,
    "insight.skewness.threshold": 1.0,
    "insight.infinity.threshold": 0.0,
    "insight.zeros.threshold": 0.5,
    "insight.negatives.threshold": 0.0,
    "insight.high_cardinality.threshold": 50,
    "insight.constant.enabled": True,
    "insight.outlier.iqr_multiplier": 1.5,
    "insight.outlier.threshold": 0.01,
    "insight.correlation.threshold": 0.8,
    "insight.enabled": True,
    # Compute pipeline
    "compute.partition_rows": 100000,
    "compute.use_graph": "auto",          # "auto" | "always" | "never"
    "compute.small_data_rows": 50000,      # below this, skip the graph stage
    "compute.engine": "lazy",              # see repro.graph.engines
    # Execution backend for the graph stage: "threaded" (default; GIL-shared
    # workers, fine for numpy-dominated tasks), "process" (a true
    # multiprocess pool — scales GIL-bound chunk work such as streaming CSV
    # parsing across cores) or "synchronous" (in-order, single-threaded).
    # The REPRO_SCHEDULER environment variable overrides the default at
    # Config construction time, which is how CI runs the whole suite under
    # the process backend.
    "compute.scheduler": "threaded",
    "compute.max_workers": None,           # respected by all schedulers
    # Remote (socket) backend, compute.scheduler = "remote": a coordinator
    # binds compute.remote.bind (port 0 = any free port; bind a routable
    # address to let workers on other hosts attach with
    # `python -m repro.graph.remote --connect HOST:PORT`), spawns
    # compute.remote.workers local worker processes (None = compute
    # .max_workers, REPRO_REMOTE_WORKERS overrides the default), pings
    # them every compute.remote.heartbeat_s seconds and re-dispatches the
    # bundles of a worker that disconnects or holds an executing bundle
    # longer than compute.remote.timeout_s.  Connections authenticate
    # with an HMAC challenge-response over compute.remote.authkey
    # (REPRO_REMOTE_AUTHKEY overrides the default); None mints a random
    # per-pool secret, which locks the pool to its own spawned workers —
    # attaching workers from other hosts requires an explicit shared key
    # exported as REPRO_REMOTE_AUTHKEY on the worker side.  The key
    # authenticates but does not encrypt: bind routable addresses only on
    # trusted networks.
    "compute.remote.workers": None,
    "compute.remote.bind": "127.0.0.1:0",
    "compute.remote.heartbeat_s": 2.0,
    "compute.remote.timeout_s": 30.0,
    "compute.remote.authkey": None,
    # Projection pushdown: partition tasks parse/slice only the columns the
    # requested reductions declare (e.g. plot(df, "x") over a scanned CSV
    # parses one column per chunk, not the whole table).  Overlapping
    # requests inside one graph are merged into shared projected parses;
    # disable to force every partition task back to full-width
    # materialization (the pre-projection behaviour).
    "compute.projection": True,
    # Predicate pushdown: filtered EDA calls (plot(..., where=...) or a
    # scan indexed with a predicate) ship the compiled filter into the
    # partition parse tasks and consult per-chunk zone-map statistics to
    # skip chunks no matching row can live in.  Disable to parse every
    # chunk and filter inside the parse instead — identical results, no
    # chunk skipping (the equivalence grid pins both modes against
    # in-memory mask filtering).
    "compute.predicates": True,
    "compute.histogram_bins_internal": 512,
    "compute.enable_cse": True,
    "compute.enable_fusion": False,
    # Out-of-core streaming (inputs opened with repro.scan_csv).  A scanned
    # frame is processed chunk by chunk: memory.chunk_rows caps the rows per
    # chunk and memory.budget_bytes caps the estimated peak parse memory
    # across all concurrently in-flight chunks (the effective chunk size is
    # the smaller of the two constraints).
    "memory.chunk_rows": _DEFAULT_CHUNK_ROWS,
    "memory.budget_bytes": _DEFAULT_BUDGET_BYTES,
    # Cross-call intermediate cache (see repro.graph.cache).  When enabled,
    # repeated EDA calls on the same frame reuse partition slices, summaries
    # and histograms computed by earlier calls in this process.
    "cache.enabled": True,
    "cache.max_bytes": _CACHE_DEFAULT_MAX_BYTES,
    # Parsed-chunk disk sidecar (see repro.frame.sidecar).  Scanned CSVs
    # spill each parsed chunk's columns to a binary sidecar next to the
    # file (or under cache.disk_dir when set); warm re-scans — in this
    # process, a later one, or a process-pool worker — load the columns
    # back without decoding CSV.  cache.disk_bytes caps each sidecar
    # directory, evicting least-recently-used chunks.
    "cache.disk_enabled": True,
    "cache.disk_dir": None,
    "cache.disk_bytes": _SIDECAR_DEFAULT_BYTES,
    # Rendering
    "render.width": 640,
    "render.height": 360,
    "render.max_tabs": 12,
    "report.title": "DataPrep.EDA Report",
    "report.sample_rows": 10,
    "report.interactions_max_columns": 10,
}

#: Keys whose value must be a positive integer.
_POSITIVE_INT_KEYS = {
    "hist.bins", "kde.grid_points", "kde.bins", "qq.points", "box.max_groups",
    "bar.top_words", "pie.slices", "wordfreq.top_words", "scatter.sample_size",
    "hexbin.gridsize", "binnedbox.bins", "nested.max_categories",
    "stacked.max_categories", "heatmap.max_categories", "line.max_groups",
    "line.bins", "correlation.kendall_max_rows", "correlation.scatter_sample_size",
    "correlation.top_k", "missing.spectrum_bins", "missing.bins",
    "missing.quantiles", "insight.high_cardinality.threshold",
    "compute.partition_rows", "compute.small_data_rows",
    "compute.histogram_bins_internal", "memory.chunk_rows",
    "memory.budget_bytes", "cache.max_bytes", "cache.disk_bytes",
    "render.width",
    "render.height", "render.max_tabs", "report.sample_rows",
    "report.interactions_max_columns",
}

#: Keys whose value must be a plain boolean.
_BOOL_KEYS = {
    "cache.enabled", "cache.disk_enabled", "hist.auto_bins",
    "bar.sort_descending",
    "wordfreq.lowercase", "insight.constant.enabled", "insight.enabled",
    "compute.enable_cse", "compute.enable_fusion", "compute.projection",
    "compute.predicates",
}

#: Keys whose value must be a float in [0, 1].
_RATE_KEYS = {
    "insight.missing.threshold", "insight.duplicates.threshold",
    "insight.similar_distribution.alpha", "insight.uniform.alpha",
    "insight.normal.alpha", "insight.zeros.threshold",
    "insight.negatives.threshold", "insight.outlier.threshold",
    "insight.infinity.threshold",
}

_VALID_GRAPH_MODES = ("auto", "always", "never")
_VALID_CORRELATION_METHODS = ("pearson", "spearman", "kendall")
_VALID_SCHEDULERS = ("synchronous", "threaded", "process", "remote")


@dataclass
class Config:
    """Validated configuration passed through the Compute and Render modules.

    ``provided`` records which keys the user passed explicitly — even when
    the passed value equals the default — so consumers of process-global
    settings (the intermediate cache budget) can distinguish "the user set
    this" from "this is just the default".
    """

    values: Dict[str, Any] = field(default_factory=dict)
    display: Optional[List[str]] = None
    provided: frozenset = frozenset()

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_user(cls, user_config: Optional[Mapping[str, Any]] = None,
                  display: Optional[Sequence[str]] = None) -> "Config":
        """Build a Config from user overrides, validating every key."""
        values = dict(DEFAULTS)
        env_scheduler = os.environ.get("REPRO_SCHEDULER")
        if env_scheduler is not None:
            # Environment default; an explicit user key still wins below.
            values["compute.scheduler"] = env_scheduler
        env_remote_workers = os.environ.get("REPRO_REMOTE_WORKERS")
        if env_remote_workers is not None:
            try:
                values["compute.remote.workers"] = int(env_remote_workers)
            except ValueError:
                raise ConfigError(
                    f"REPRO_REMOTE_WORKERS expects an integer, got "
                    f"{env_remote_workers!r}", key="compute.remote.workers") \
                    from None
        env_authkey = os.environ.get("REPRO_REMOTE_AUTHKEY")
        if env_authkey is not None:
            values["compute.remote.authkey"] = env_authkey
        if user_config:
            for key, value in user_config.items():
                if key not in DEFAULTS:
                    suggestion = _closest(key, DEFAULTS.keys())
                    raise ConfigError(f"unknown config key {key!r}", key=key,
                                      suggestion=suggestion)
                values[key] = _validate(key, value)
        # Scheduler and remote worker-count defaults may come from the
        # REPRO_SCHEDULER / REPRO_REMOTE_WORKERS environment variables;
        # validate them even when the user did not pass the keys, so a
        # typo'd environment fails as loudly as a typo'd config dict.
        values["compute.scheduler"] = _validate("compute.scheduler",
                                                values["compute.scheduler"])
        values["compute.remote.workers"] = _validate(
            "compute.remote.workers", values["compute.remote.workers"])
        values["compute.remote.authkey"] = _validate(
            "compute.remote.authkey", values["compute.remote.authkey"])
        return cls(values=values,
                   display=list(display) if display is not None else None,
                   provided=frozenset(user_config or ()))

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #
    def get(self, key: str) -> Any:
        """Look up a configuration value by dotted key."""
        try:
            return self.values[key]
        except KeyError:
            suggestion = _closest(key, self.values.keys())
            raise ConfigError(f"unknown config key {key!r}", key=key,
                              suggestion=suggestion) from None

    def __getitem__(self, key: str) -> Any:
        return self.get(key)

    def group(self, prefix: str) -> Dict[str, Any]:
        """All values under a prefix, with the prefix stripped.

        ``config.group("hist")`` returns ``{"bins": 50, "auto_bins": False}``.
        """
        prefix_dot = prefix.rstrip(".") + "."
        return {key[len(prefix_dot):]: value
                for key, value in self.values.items() if key.startswith(prefix_dot)}

    def wants(self, chart_name: str) -> bool:
        """Whether the user asked for *chart_name* (all charts by default)."""
        if self.display is None:
            return True
        wanted = {name.lower() for name in self.display}
        return chart_name.lower() in wanted

    def with_overrides(self, overrides: Mapping[str, Any]) -> "Config":
        """Return a copy of this config with extra validated overrides."""
        merged = copy.deepcopy(self.values)
        for key, value in overrides.items():
            if key not in DEFAULTS:
                suggestion = _closest(key, DEFAULTS.keys())
                raise ConfigError(f"unknown config key {key!r}", key=key,
                                  suggestion=suggestion)
            merged[key] = _validate(key, value)
        return Config(values=merged, display=self.display,
                      provided=self.provided | frozenset(overrides))

    def user_overrides(self) -> Dict[str, Any]:
        """The keys whose values differ from the library defaults."""
        return {key: value for key, value in self.values.items()
                if DEFAULTS.get(key) != value}

    def __repr__(self) -> str:
        overrides = self.user_overrides()
        return f"Config(overrides={overrides}, display={self.display})"


def _validate(key: str, value: Any) -> Any:
    """Validate a single override, raising :class:`ConfigError` on bad values."""
    if key in _BOOL_KEYS:
        if not isinstance(value, bool):
            raise ConfigError(f"config key {key!r} expects a boolean, "
                              f"got {value!r}", key=key)
        return value
    if key in _POSITIVE_INT_KEYS:
        if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
            raise ConfigError(f"config key {key!r} expects a positive integer, "
                              f"got {value!r}", key=key)
        return value
    if key in _RATE_KEYS:
        if not isinstance(value, (int, float)) or isinstance(value, bool) or \
                not 0.0 <= float(value) <= 1.0:
            raise ConfigError(f"config key {key!r} expects a number in [0, 1], "
                              f"got {value!r}", key=key)
        return float(value)
    if key == "compute.use_graph":
        if value not in _VALID_GRAPH_MODES:
            raise ConfigError(f"config key {key!r} expects one of "
                              f"{_VALID_GRAPH_MODES}, got {value!r}", key=key)
        return value
    if key in ("compute.scheduler", "compute.engine"):
        valid = _VALID_SCHEDULERS if key == "compute.scheduler" \
            else tuple(available_engines())
        if value not in valid:
            suggestion = _closest(str(value), valid)
            raise ConfigError(f"config key {key!r} expects one of "
                              f"{valid}, got {value!r}", key=key,
                              suggestion=suggestion)
        return value
    if key == "correlation.methods":
        methods = tuple(value) if isinstance(value, (list, tuple)) else (value,)
        for method in methods:
            if method not in _VALID_CORRELATION_METHODS:
                raise ConfigError(
                    f"unknown correlation method {method!r}; expected a subset "
                    f"of {_VALID_CORRELATION_METHODS}", key=key)
        if not methods:
            raise ConfigError("correlation.methods must not be empty", key=key)
        return methods
    if key == "line.aggregate":
        from repro.frame.ops import AGGREGATIONS
        if value not in AGGREGATIONS:
            raise ConfigError(f"unknown aggregation {value!r}; expected one of "
                              f"{sorted(AGGREGATIONS)}", key=key)
        return value
    if key == "compute.max_workers":
        if value is not None and (not isinstance(value, int) or value <= 0):
            raise ConfigError(f"config key {key!r} expects None or a positive "
                              f"integer, got {value!r}", key=key)
        return value
    if key == "compute.remote.workers":
        # 0 is meaningful: spawn no local workers and rely entirely on
        # workers attached from other hosts via compute.remote.bind.
        if value is not None and (not isinstance(value, int)
                                  or isinstance(value, bool) or value < 0):
            raise ConfigError(f"config key {key!r} expects None or a "
                              f"non-negative integer, got {value!r}", key=key)
        return value
    if key == "compute.remote.bind":
        if not isinstance(value, str):
            raise ConfigError(f"config key {key!r} expects a 'host:port' "
                              f"string, got {value!r}", key=key)
        from repro.graph.wire import WireError, parse_address
        try:
            parse_address(value)
        except WireError as error:
            raise ConfigError(f"config key {key!r}: {error}", key=key) from None
        return value
    if key == "compute.remote.authkey":
        # None = a random per-pool secret (spawned workers only); attach
        # mode needs an explicit non-empty shared key.
        if value is not None and (not isinstance(value, str) or not value):
            # Deliberately not echoing the value: it is a secret.
            raise ConfigError(f"config key {key!r} expects None or a "
                              f"non-empty secret string", key=key)
        return value
    if key in ("compute.remote.heartbeat_s", "compute.remote.timeout_s"):
        if not isinstance(value, (int, float)) or isinstance(value, bool) or \
                float(value) <= 0.0:
            raise ConfigError(f"config key {key!r} expects a positive number "
                              f"of seconds, got {value!r}", key=key)
        return float(value)
    if key == "cache.disk_dir":
        if value is not None and not isinstance(value, str):
            raise ConfigError(f"config key {key!r} expects None or a directory "
                              f"path string, got {value!r}", key=key)
        return value
    return value


def available_config_keys() -> List[str]:
    """All configurable dotted keys (used by the how-to guide and the docs)."""
    return sorted(DEFAULTS)
