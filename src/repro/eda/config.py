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
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.errors import ConfigError, _closest
from repro.frame.sidecar import DEFAULT_DISK_BYTES as _SIDECAR_DEFAULT_BYTES
from repro.graph.cache import DEFAULT_MAX_BYTES as _CACHE_DEFAULT_MAX_BYTES

_VALID_GRAPH_MODES = ("auto", "always", "never")
_VALID_CORRELATION_METHODS = ("pearson", "spearman", "kendall")
_VALID_SCHEDULERS = ("synchronous", "threaded", "process", "remote")


# --------------------------------------------------------------------------- #
# Validators: ``check(key, value) -> validated value``.
# --------------------------------------------------------------------------- #
def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _expects(expected: str, accepts: Callable[[Any], bool],
             convert: Callable[[Any], Any] = lambda value: value
             ) -> Callable[[str, Any], Any]:
    """A validator passing (converted) values for which *accepts* holds."""
    def check(key: str, value: Any) -> Any:
        if not accepts(value):
            raise ConfigError(f"config key {key!r} expects {expected}, "
                              f"got {value!r}", key=key)
        return convert(value)
    return check


_boolean = _expects("a boolean", lambda v: isinstance(v, bool))
_positive_int = _expects("a positive integer", lambda v: _is_int(v) and v > 0)
_rate = _expects("a number in [0, 1]",
                 lambda v: _is_number(v) and 0.0 <= float(v) <= 1.0, float)
_seconds = _expects("a positive number of seconds",
                    lambda v: _is_number(v) and float(v) > 0.0, float)
_optional_workers = _expects(
    "None or a positive integer", lambda v: v is None or (_is_int(v) and v > 0))
# 0 is meaningful: spawn no local workers and rely entirely on workers
# attached from other hosts via compute.remote.bind.
_optional_remote_workers = _expects(
    "None or a non-negative integer",
    lambda v: v is None or (_is_int(v) and v >= 0))
_optional_directory = _expects("None or a directory path string",
                               lambda v: v is None or isinstance(v, str))
_graph_mode = _expects(f"one of {_VALID_GRAPH_MODES}",
                       lambda v: v in _VALID_GRAPH_MODES)


def _scheduler(key: str, value: Any) -> str:
    if value not in _VALID_SCHEDULERS:
        raise ConfigError(f"config key {key!r} expects one of "
                          f"{_VALID_SCHEDULERS}, got {value!r}", key=key,
                          suggestion=_closest(str(value), _VALID_SCHEDULERS))
    return value


def _correlation_methods(key: str, value: Any) -> Tuple[str, ...]:
    methods = tuple(value) if isinstance(value, (list, tuple)) else (value,)
    for method in methods:
        if method not in _VALID_CORRELATION_METHODS:
            raise ConfigError(
                f"unknown correlation method {method!r}; expected a subset "
                f"of {_VALID_CORRELATION_METHODS}", key=key)
    if not methods:
        raise ConfigError("correlation.methods must not be empty", key=key)
    return methods


def _bind_address(key: str, value: Any) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"config key {key!r} expects a 'host:port' "
                          f"string, got {value!r}", key=key)
    from repro.graph.wire import WireError, parse_address
    try:
        parse_address(value)
    except WireError as error:
        raise ConfigError(f"config key {key!r}: {error}", key=key) from None
    return value


def _authkey(key: str, value: Any) -> Optional[str]:
    # None = a random per-pool secret (spawned workers only); attach mode
    # needs an explicit non-empty shared key.
    if value is not None and (not isinstance(value, str) or not value):
        # Deliberately not echoing the value: it is a secret.
        raise ConfigError(f"config key {key!r} expects None or a "
                          f"non-empty secret string", key=key)
    return value


#: Every configurable parameter, declared once: ``key: (default, validator)``,
#: grouped by component.  A validator is ``check(key, value) -> value`` and
#: raises :class:`ConfigError`; None accepts any value.  The how-to guide
#: surfaces these keys to the user (Section 4.1).
_KEYS: Dict[str, Tuple[Any, Optional[Callable[[str, Any], Any]]]] = {
    # Histogram
    "hist.bins": (50, _positive_int),
    "hist.auto_bins": (False, _boolean),
    # Kernel density estimate plot
    "kde.grid_points": (200, _positive_int),
    # Normal Q-Q plot
    "qq.points": (100, _positive_int),
    # Box plot
    "box.whisker": (1.5, None),
    "box.max_groups": (10, _positive_int),
    # Bar / pie chart for categorical columns
    "bar.top_words": (10, _positive_int),
    "pie.slices": (6, _positive_int),
    # Word statistics for categorical columns
    "wordfreq.top_words": (10, _positive_int),
    "wordfreq.lowercase": (True, _boolean),
    # Scatter / hexbin for numerical-numerical bivariate analysis
    "scatter.sample_size": (1000, _positive_int),
    "hexbin.gridsize": (20, _positive_int),
    "binnedbox.bins": (10, _positive_int),
    # Nested and stacked bar charts (one shared bound) and heat map for two
    # categorical columns
    "nested.max_categories": (10, _positive_int),
    "heatmap.max_categories": (20, _positive_int),
    # Multi-line chart for categorical-numerical bivariate analysis
    "line.max_groups": (10, _positive_int),
    "line.bins": (20, _positive_int),
    # Correlation analysis
    "correlation.methods": (("pearson", "spearman", "kendall"), _correlation_methods),
    "correlation.kendall_max_rows": (10000, _positive_int),
    "correlation.scatter_sample_size": (1000, _positive_int),
    "correlation.top_k": (5, _positive_int),
    # Missing-value analysis
    "missing.spectrum_bins": (32, _positive_int),
    "missing.bins": (30, _positive_int),
    # Insight thresholds (Section 4.2.2: each insight has its own threshold)
    "insight.missing.threshold": (0.1, _rate),
    "insight.duplicates.threshold": (0.05, _rate),
    "insight.similar_distribution.alpha": (0.05, _rate),
    "insight.uniform.alpha": (0.05, _rate),
    "insight.normal.alpha": (0.05, _rate),
    "insight.skewness.threshold": (1.0, None),
    "insight.infinity.threshold": (0.0, _rate),
    "insight.zeros.threshold": (0.5, _rate),
    "insight.negatives.threshold": (0.0, _rate),
    "insight.high_cardinality.threshold": (50, _positive_int),
    "insight.constant.enabled": (True, _boolean),
    "insight.outlier.threshold": (0.01, _rate),
    "insight.correlation.threshold": (0.8, None),
    "insight.enabled": (True, _boolean),
    # Compute pipeline
    "compute.partition_rows": (100000, _positive_int),
    "compute.use_graph": ("auto", _graph_mode), # "auto" | "always" | "never"
    "compute.small_data_rows": (50000, _positive_int), # below this, skip the graph stage
    # Execution backend for the graph stage: "threaded" (default; GIL-shared
    # workers, fine for numpy-dominated tasks), "process" (a true
    # multiprocess pool — scales GIL-bound chunk work such as streaming CSV
    # parsing across cores) or "synchronous" (in-order, single-threaded).
    # The REPRO_SCHEDULER environment variable overrides the default at
    # Config construction time, which is how CI runs the whole suite under
    # the process backend.
    "compute.scheduler": ("threaded", _scheduler),
    "compute.max_workers": (None, _optional_workers), # respected by all schedulers
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
    "compute.remote.workers": (None, _optional_remote_workers),
    "compute.remote.bind": ("127.0.0.1:0", _bind_address),
    "compute.remote.heartbeat_s": (2.0, _seconds),
    "compute.remote.timeout_s": (30.0, _seconds),
    "compute.remote.authkey": (None, _authkey),
    # Cross-call intermediate cache (see repro.graph.cache).  When enabled,
    # repeated EDA calls on the same frame reuse partition slices, summaries
    # and histograms computed by earlier calls in this process.
    "cache.enabled": (True, _boolean),
    "cache.max_bytes": (_CACHE_DEFAULT_MAX_BYTES, _positive_int),
    # Parsed-chunk disk sidecar (see repro.frame.sidecar).  Scanned CSVs
    # spill each parsed chunk's columns to a binary sidecar next to the
    # file (or under cache.disk_dir when set); warm re-scans — in this
    # process, a later one, or a process-pool worker — load the columns
    # back without decoding CSV.  cache.disk_bytes caps each sidecar
    # directory, evicting least-recently-used chunks.
    "cache.disk_enabled": (True, _boolean),
    "cache.disk_dir": (None, _optional_directory),
    "cache.disk_bytes": (_SIDECAR_DEFAULT_BYTES, _positive_int),
    # Rendering
    "render.width": (640, _positive_int),
    "render.height": (360, _positive_int),
    "render.max_tabs": (12, _positive_int),
    "report.title": ("DataPrep.EDA Report", None),
    "report.interactions_max_columns": (10, _positive_int),
}

#: Default value of every key (what the how-to guide and the docs list).
DEFAULTS: Dict[str, Any] = {key: default for key, (default, _) in _KEYS.items()}


@dataclass
class Config:
    """Validated configuration passed through the Compute and Render modules.

    ``provided`` records which keys the user passed explicitly — even when
    the passed value equals the default — so consumers of process-global
    settings (the intermediate cache budget) can distinguish "the user set
    this" from "this is just the default".

    It holds no choice of which visualizations to show: the ``display=``
    argument of the ``plot*`` calls selects among the finished items in
    :mod:`repro.eda.api`, so no computed value depends on it.
    """

    values: Dict[str, Any] = field(default_factory=dict)
    provided: frozenset = frozenset()

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_user(cls, user_config: Optional[Mapping[str, Any]] = None
                  ) -> "Config":
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
        for key, value in (user_config or {}).items():
            values[key] = _validate(key, value)
        # These defaults may come from the REPRO_SCHEDULER /
        # REPRO_REMOTE_WORKERS / REPRO_REMOTE_AUTHKEY environment variables;
        # validate them even when the user did not pass the keys, so a
        # typo'd environment fails as loudly as a typo'd config dict.
        for key in ("compute.scheduler", "compute.remote.workers",
                    "compute.remote.authkey"):
            values[key] = _validate(key, values[key])
        return cls(values=values, provided=frozenset(user_config or ()))

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

    def with_overrides(self, overrides: Mapping[str, Any]) -> "Config":
        """Return a copy of this config with extra validated overrides."""
        merged = copy.deepcopy(self.values)
        for key, value in overrides.items():
            merged[key] = _validate(key, value)
        return Config(values=merged,
                      provided=self.provided | frozenset(overrides))

    def user_overrides(self) -> Dict[str, Any]:
        """The keys whose values differ from the library defaults."""
        return {key: value for key, value in self.values.items()
                if DEFAULTS.get(key) != value}

    def __repr__(self) -> str:
        overrides = self.user_overrides()
        return f"Config(overrides={overrides})"


def _validate(key: str, value: Any) -> Any:
    """Validate a single override, raising :class:`ConfigError` for an
    unknown key (naming the closest real one) or a bad value."""
    if key not in _KEYS:
        raise ConfigError(f"unknown config key {key!r}", key=key,
                          suggestion=_closest(key, _KEYS))
    check = _KEYS[key][1]
    return value if check is None else check(key, value)


def available_config_keys() -> List[str]:
    """All configurable dotted keys (used by the how-to guide and the docs)."""
    return sorted(DEFAULTS)
