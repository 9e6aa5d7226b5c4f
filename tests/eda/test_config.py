"""Tests for the Config Manager."""

import pytest

from repro.eda.config import Config, DEFAULTS, available_config_keys
from repro.errors import ConfigError


@pytest.fixture(autouse=True)
def _clean_scheduler_env(monkeypatch):
    """Pin the library defaults: this suite tests Config itself, so the
    REPRO_SCHEDULER / REPRO_REMOTE_WORKERS environment overrides (used by
    CI to run everything under the process and remote backends) must not
    leak in.  The env-specific tests set them back explicitly via
    monkeypatch."""
    monkeypatch.delenv("REPRO_SCHEDULER", raising=False)
    monkeypatch.delenv("REPRO_REMOTE_WORKERS", raising=False)
    monkeypatch.delenv("REPRO_REMOTE_AUTHKEY", raising=False)


class TestDefaults:
    def test_defaults_are_complete(self):
        config = Config.from_user()
        for key in DEFAULTS:
            assert config.get(key) == DEFAULTS[key]

    def test_available_keys_sorted(self):
        keys = available_config_keys()
        assert keys == sorted(keys)
        assert "hist.bins" in keys

    def test_no_overrides_reported_by_default(self):
        assert Config.from_user().user_overrides() == {}


class TestOverrides:
    def test_override_is_applied(self):
        config = Config.from_user({"hist.bins": 200})
        assert config.get("hist.bins") == 200
        assert config.user_overrides() == {"hist.bins": 200}

    def test_unknown_key_suggests_closest(self):
        with pytest.raises(ConfigError) as excinfo:
            Config.from_user({"hist.bin": 10})
        assert "hist.bins" in str(excinfo.value)

    def test_getitem_and_get_raise_for_unknown_keys(self):
        config = Config.from_user()
        with pytest.raises(ConfigError):
            config.get("nope.nope")
        with pytest.raises(ConfigError):
            config["nope.nope"]

    def test_with_overrides_returns_new_config(self):
        base = Config.from_user()
        derived = base.with_overrides({"kde.grid_points": 400})
        assert base.get("kde.grid_points") == DEFAULTS["kde.grid_points"]
        assert derived.get("kde.grid_points") == 400

    def test_group_strips_prefix(self):
        group = Config.from_user().group("hist")
        assert group == {"bins": DEFAULTS["hist.bins"],
                         "auto_bins": DEFAULTS["hist.auto_bins"]}


class TestValidation:
    @pytest.mark.parametrize("key,value", [
        ("hist.bins", 0), ("hist.bins", -3), ("hist.bins", 2.5),
        ("hist.bins", True), ("scatter.sample_size", "many"),
    ])
    def test_positive_int_keys(self, key, value):
        with pytest.raises(ConfigError):
            Config.from_user({key: value})

    @pytest.mark.parametrize("value", [-0.1, 1.5, "high", True])
    def test_rate_keys(self, value):
        with pytest.raises(ConfigError):
            Config.from_user({"insight.missing.threshold": value})

    def test_rate_keys_accept_boundaries(self):
        config = Config.from_user({"insight.missing.threshold": 0.0,
                                   "insight.zeros.threshold": 1.0})
        assert config.get("insight.missing.threshold") == 0.0

    def test_graph_mode_validation(self):
        assert Config.from_user({"compute.use_graph": "never"}).get(
            "compute.use_graph") == "never"
        with pytest.raises(ConfigError):
            Config.from_user({"compute.use_graph": "sometimes"})

    def test_correlation_methods_validation(self):
        config = Config.from_user({"correlation.methods": ["pearson"]})
        assert config.get("correlation.methods") == ("pearson",)
        with pytest.raises(ConfigError):
            Config.from_user({"correlation.methods": ["phi_k"]})
        with pytest.raises(ConfigError):
            Config.from_user({"correlation.methods": []})

    def test_max_workers_validation(self):
        assert Config.from_user({"compute.max_workers": 4}).get(
            "compute.max_workers") == 4
        assert Config.from_user({"compute.max_workers": None}).get(
            "compute.max_workers") is None
        with pytest.raises(ConfigError):
            Config.from_user({"compute.max_workers": 0})
        # bool is an int: True used to pass and become a one-worker pool.
        with pytest.raises(ConfigError, match="None or a positive integer"):
            Config.from_user({"compute.max_workers": True})

    @pytest.mark.parametrize("name", ["synchronous", "threaded", "process",
                                      "remote"])
    def test_scheduler_accepts_registered_backends(self, name):
        assert Config.from_user({"compute.scheduler": name}).get(
            "compute.scheduler") == name

    def test_scheduler_rejects_unknown_value_with_suggestion(self):
        with pytest.raises(ConfigError) as excinfo:
            Config.from_user({"compute.scheduler": "proces"})
        assert "process" in str(excinfo.value)
        assert "did you mean" in str(excinfo.value)

    def test_scheduler_env_default_applies_and_user_key_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCHEDULER", "process")
        assert Config.from_user().get("compute.scheduler") == "process"
        assert Config.from_user({"compute.scheduler": "threaded"}).get(
            "compute.scheduler") == "threaded"

    def test_scheduler_env_typo_fails_loudly(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCHEDULER", "procss")
        with pytest.raises(ConfigError) as excinfo:
            Config.from_user()
        assert "process" in str(excinfo.value)

    def test_scheduler_remote_typo_suggests_remote(self):
        with pytest.raises(ConfigError) as excinfo:
            Config.from_user({"compute.scheduler": "remot"})
        assert "remote" in str(excinfo.value)

    def test_remote_workers_validation(self):
        assert Config.from_user({"compute.remote.workers": 4}).get(
            "compute.remote.workers") == 4
        # 0 is valid: attached-only pools spawn no local workers.
        assert Config.from_user({"compute.remote.workers": 0}).get(
            "compute.remote.workers") == 0
        assert Config.from_user().get("compute.remote.workers") is None
        with pytest.raises(ConfigError):
            Config.from_user({"compute.remote.workers": -1})
        with pytest.raises(ConfigError):
            Config.from_user({"compute.remote.workers": True})

    def test_remote_workers_env_default_applies_and_user_key_wins(
            self, monkeypatch):
        monkeypatch.setenv("REPRO_REMOTE_WORKERS", "3")
        assert Config.from_user().get("compute.remote.workers") == 3
        assert Config.from_user({"compute.remote.workers": 2}).get(
            "compute.remote.workers") == 2

    def test_remote_workers_env_garbage_fails_loudly(self, monkeypatch):
        monkeypatch.setenv("REPRO_REMOTE_WORKERS", "many")
        with pytest.raises(ConfigError):
            Config.from_user()

    def test_remote_bind_validation(self):
        assert Config.from_user({"compute.remote.bind": "0.0.0.0:8786"}).get(
            "compute.remote.bind") == "0.0.0.0:8786"
        with pytest.raises(ConfigError):
            Config.from_user({"compute.remote.bind": "no-port-here"})
        with pytest.raises(ConfigError):
            Config.from_user({"compute.remote.bind": "host:99999"})
        with pytest.raises(ConfigError):
            Config.from_user({"compute.remote.bind": 8786})

    @pytest.mark.parametrize("key", ["compute.remote.heartbeat_s",
                                     "compute.remote.timeout_s"])
    def test_remote_interval_validation(self, key):
        assert Config.from_user({key: 1}).get(key) == 1.0
        assert Config.from_user({key: 0.5}).get(key) == 0.5
        with pytest.raises(ConfigError):
            Config.from_user({key: 0})
        with pytest.raises(ConfigError):
            Config.from_user({key: -2.0})
        with pytest.raises(ConfigError):
            Config.from_user({key: True})
        with pytest.raises(ConfigError):
            Config.from_user({key: float("nan")})

    def test_remote_authkey_validation(self):
        assert Config.from_user().get("compute.remote.authkey") is None
        assert Config.from_user({"compute.remote.authkey": "s3cret"}).get(
            "compute.remote.authkey") == "s3cret"
        with pytest.raises(ConfigError):
            Config.from_user({"compute.remote.authkey": ""})
        with pytest.raises(ConfigError) as excinfo:
            Config.from_user({"compute.remote.authkey": b"bytes-key"})
        # The validation error must not echo the (secret) value.
        assert "bytes-key" not in str(excinfo.value)

    def test_remote_authkey_env_default_applies_and_user_key_wins(
            self, monkeypatch):
        monkeypatch.setenv("REPRO_REMOTE_AUTHKEY", "from-env")
        assert Config.from_user().get("compute.remote.authkey") == "from-env"
        assert Config.from_user({"compute.remote.authkey": "explicit"}).get(
            "compute.remote.authkey") == "explicit"

    def test_remote_authkey_typo_suggests_key(self):
        with pytest.raises(ConfigError) as excinfo:
            Config.from_user({"compute.remote.authky": "s3cret"})
        assert "compute.remote.authkey" in str(excinfo.value)


class TestKeyDeclarations:
    """Every key is declared once, default beside validator."""

    def test_every_default_passes_its_own_validator(self):
        from repro.eda.config import _KEYS, _validate
        assert list(_KEYS) == list(DEFAULTS)
        for key, default in DEFAULTS.items():
            assert _validate(key, default) == default

    @pytest.mark.parametrize("key", [
        "compute.enable_fusion", "compute.enable_cse", "compute.engine",
        "insight.outlier.iqr_multiplier", "report.sample_rows",
        "compute.projection", "compute.predicates",
        "compute.histogram_bins_internal", "memory.chunk_rows",
        "memory.budget_bytes", "kde.bins", "bar.sort_descending",
        "stacked.max_categories", "line.aggregate", "missing.quantiles"])
    def test_removed_keys_are_unknown(self, key):
        assert key not in DEFAULTS
        with pytest.raises(ConfigError, match="unknown config key"):
            Config.from_user({key: False})

    def test_every_key_is_read_somewhere(self):
        """A key nothing reads is an option nobody can be using: the guard
        that found ``insight.outlier.iqr_multiplier`` and
        ``report.sample_rows``.  The chart registry lists how-to guide
        keys and reads none, so its listing does not count as a read."""
        import pathlib

        import repro
        from repro.eda.config import _KEYS
        package = pathlib.Path(repro.__file__).parent
        readers = "".join(path.read_text(encoding="utf-8")
                          for path in sorted(package.rglob("*.py"))
                          if path.name not in ("config.py", "registry.py"))
        unread = [key for key in _KEYS
                  if f'"{key}"' not in readers and f"'{key}'" not in readers]
        assert unread == []
        assert len(_KEYS) == 57


class TestConfigHygiene:
    """Unknown dotted keys must raise with a did-you-mean suggestion.

    A typo in a pipeline-control key (``compute.*`` /
    ``cache.*``) silently ignored would mean e.g. the process scheduler the
    user asked for never runs; the Config Manager must reject the key and
    name the closest real one.
    """

    @pytest.mark.parametrize("typo,expected", [
        ("compute.sheduler", "compute.scheduler"),
        ("compute.schedular", "compute.scheduler"),
        ("compute.maxworkers", "compute.max_workers"),
        ("compute.partition_row", "compute.partition_rows"),
        ("cache.disk_byte", "cache.disk_bytes"),
        ("cache.enable", "cache.enabled"),
        ("cache.maxbytes", "cache.max_bytes"),
        ("compute.remote.worker", "compute.remote.workers"),
        ("compute.remote.binds", "compute.remote.bind"),
        ("compute.remote.heartbeat", "compute.remote.heartbeat_s"),
        ("compute.remote.timeout", "compute.remote.timeout_s"),
    ])
    def test_typoed_key_suggests_real_key(self, typo, expected):
        with pytest.raises(ConfigError) as excinfo:
            Config.from_user({typo: 1})
        message = str(excinfo.value)
        assert typo in message
        assert expected in message, f"no suggestion for {typo!r}: {message}"

    def test_unknown_key_rejected_in_with_overrides_too(self):
        with pytest.raises(ConfigError) as excinfo:
            Config.from_user().with_overrides({"compute.sheduler": "process"})
        assert "compute.scheduler" in str(excinfo.value)
