"""Tests for the synthetic dataset generators."""

import numpy as np
import pytest

from repro.datasets import (
    TABLE2_DATASETS,
    bird_strike_dataset,
    bitcoin_dataset,
    delayed_flights_dataset,
    generate_dataset,
    load_kaggle_like,
    table2_dataset_names,
)
from repro.datasets.kaggle import table2_entry
from repro.datasets.synthetic import ColumnSpec, DatasetSpec, mixed_spec
from repro.errors import DatasetError
from repro.eda.compute.base import ComputeContext
from repro.eda.config import Config


class TestSyntheticGenerator:
    def test_mixed_spec_shapes(self):
        spec = mixed_spec("demo", n_rows=500, n_numerical=4, n_categorical=3)
        assert spec.n_numerical == 4
        assert spec.n_categorical == 3
        frame = generate_dataset(spec)
        assert frame.shape == (500, 7)

    def test_generation_is_deterministic(self):
        spec = mixed_spec("demo", 200, 2, 2, seed=9)
        assert generate_dataset(spec) == generate_dataset(spec)

    def test_missing_rate_is_applied(self):
        spec = DatasetSpec("m", 2000, [ColumnSpec("x", "normal", missing_rate=0.3)])
        frame = generate_dataset(spec)
        assert frame.column("x").missing_rate() == pytest.approx(0.3, abs=0.05)

    def test_categorical_cardinality(self):
        spec = DatasetSpec("c", 5000, [ColumnSpec("c", "categorical", cardinality=12)])
        frame = generate_dataset(spec)
        assert frame.column("c").nunique() == 12

    def test_invalid_specs_rejected(self):
        with pytest.raises(DatasetError):
            ColumnSpec("x", kind="mystery")
        with pytest.raises(DatasetError):
            ColumnSpec("x", missing_rate=1.5)
        with pytest.raises(DatasetError):
            generate_dataset(DatasetSpec("empty", 10, []))

    def test_scaled_spec(self):
        spec = mixed_spec("demo", 100, 1, 1).scaled(1000)
        assert spec.n_rows == 1000


class TestTable2Datasets:
    def test_catalog_has_fifteen_entries(self):
        assert len(TABLE2_DATASETS) == 15
        assert len(table2_dataset_names()) == 15

    def test_entries_match_paper_shapes(self):
        titanic = table2_entry("titanic")
        assert titanic.n_rows == 891
        assert titanic.n_numerical == 7 and titanic.n_categorical == 5
        credit = table2_entry("credit")
        assert credit.n_columns == 25
        assert credit.paper_speedup == pytest.approx(20.8, abs=0.1)

    def test_unknown_dataset_raises(self):
        with pytest.raises(DatasetError):
            table2_entry("mnist")
        with pytest.raises(DatasetError):
            load_kaggle_like("mnist")

    @pytest.mark.parametrize("name", ["heart", "titanic", "chess"])
    def test_generated_shape_matches_entry(self, name):
        entry = table2_entry(name)
        frame = load_kaggle_like(name)
        assert frame.shape == (entry.n_rows, entry.n_columns)
        numerical = len(ComputeContext(frame, Config.from_user()).numerical_columns())
        # The synthetic generator reproduces the numerical/categorical split
        # (low-cardinality integer columns may read as categorical).
        assert abs(numerical - entry.n_numerical) <= 2

    def test_row_scale(self):
        frame = load_kaggle_like("rain", row_scale=0.01)
        assert len(frame) == 1420


class TestScenarioDatasets:
    def test_bitcoin_schema(self):
        frame = bitcoin_dataset(n_rows=1000)
        assert frame.shape == (1000, 8)
        assert frame.columns[:2] == ["timestamp", "open"]
        close = frame.column("close").to_numpy(drop_missing=True)
        assert np.all(close > 0)
        with pytest.raises(DatasetError):
            bitcoin_dataset(0)

    def test_bird_strike_shape_and_missing_pattern(self):
        frame = bird_strike_dataset(n_rows=5000)
        assert frame.shape == (5000, 12)
        assert frame.column("cost_repair").missing_count() > 0
        # Rows without damage drive the missing repair costs (the ground truth
        # pattern the study's task 4 asks about).
        damage = np.array([value == "no damage" for value in
                           frame.column("damage_level").to_list()])
        missing = frame.column("cost_repair").isna()
        assert missing[damage].mean() > missing[~damage].mean()

    def test_delayed_flights_shape_and_correlation(self):
        frame = delayed_flights_dataset(n_rows=5000)
        assert frame.shape == (5000, 14)
        both = frame.column("departure_delay").notna() & \
            frame.column("arrival_delay").notna()
        x = frame.column("departure_delay").filter(both).to_numpy()
        y = frame.column("arrival_delay").filter(both).to_numpy()
        assert np.corrcoef(x, y)[0, 1] > 0.85

    def test_scenario_datasets_reject_bad_sizes(self):
        with pytest.raises(DatasetError):
            bird_strike_dataset(0)
        with pytest.raises(DatasetError):
            delayed_flights_dataset(-5)
