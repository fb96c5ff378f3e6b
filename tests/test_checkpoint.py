import numpy as np
import pytest

from pvdispatch import checkpoint
from pvdispatch.baselines import kmeans_fit, monthly_hour_fit
from pvdispatch.checkpoint import CheckpointError
from pvdispatch.data import (
    NormalizationParams,
    TimeSeriesDataset,
    derive_dark_mask,
)
from pvdispatch.lstm import NetworkConfig, init_params


def small_dataset():
    n = 24 * 40
    ts = np.datetime64("2023-01-01T00", "h") + np.arange(n)
    rng = np.random.Generator(np.random.PCG64(1))
    vals = rng.uniform(0, 5, (n, 1))
    hours = ts.astype("datetime64[h]").astype(np.int64) % 24
    vals[hours < 7, 0] = 0.0
    return TimeSeriesDataset(ts, vals, ("pv",))


def assert_same_mask(back, mask):
    np.testing.assert_array_equal(back.table, mask.table)
    np.testing.assert_array_equal(back.month_defined, mask.month_defined)


class TestLstmCheckpoint:
    def test_bit_exact_roundtrip(self, tmp_path):
        cfg = NetworkConfig(input_features=3, layer_sizes=(8, 5), seed=3)
        params = init_params(cfg)
        normalizer = NormalizationParams(
            np.array([0.0, 1.0, 2.0]), np.array([10.0, 11.0, 12.0])
        )
        ds = small_dataset()
        mask = derive_dark_mask(ds, 0)
        path = tmp_path / "model.npz"
        checkpoint.save_lstm(path, cfg, params, normalizer, mask)
        cfg2, params2, normalizer2, mask2 = checkpoint.load_lstm(path)
        assert cfg2 == cfg
        for a, b in zip(params.leaves(), params2.leaves()):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(
            normalizer2.feature_min, normalizer.feature_min
        )
        assert_same_mask(mask2, mask)

    def test_file_without_mask_rejected_naming_it(self, tmp_path):
        """Forecasts are masked, so a checkpoint must carry its dark mask."""
        cfg = NetworkConfig(input_features=1, layer_sizes=(2,))
        normalizer = NormalizationParams(np.array([0.0]), np.array([1.0]))
        path = tmp_path / "model.npz"
        mask = derive_dark_mask(small_dataset(), 0)
        checkpoint.save_lstm(path, cfg, init_params(cfg), normalizer, mask)
        with np.load(path) as archive:
            arrays = {k: v for k, v in archive.items() if not k.startswith("mask_")}
        with path.open("wb") as fh:
            np.savez(fh, **arrays)
        with pytest.raises(CheckpointError) as err:
            checkpoint.load_lstm(path)
        assert str(err.value).startswith(f"{path}: ")
        assert "mask_table" in str(err.value)

    def test_kind_mismatch_rejected(self, tmp_path):
        cfg = NetworkConfig(input_features=1, layer_sizes=(2,))
        path = tmp_path / "model.npz"
        checkpoint.save_lstm(
            path, cfg, init_params(cfg),
            NormalizationParams(np.array([0.0]), np.array([1.0])),
            derive_dark_mask(small_dataset(), 0),
        )
        with pytest.raises(CheckpointError, match="kind"):
            checkpoint.load_kmeans(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="no such file"):
            checkpoint.load_lstm(tmp_path / "nope.npz")


class TestBaselineCheckpoints:
    def test_kmeans_roundtrip(self, tmp_path):
        rng = np.random.Generator(np.random.PCG64(0))
        profiles = rng.uniform(0, 10, (30, 24))
        months = rng.integers(1, 13, 30)
        model = kmeans_fit(profiles, 4, seed=2, months=months)
        mask = derive_dark_mask(small_dataset(), 0)
        path = tmp_path / "km.npz"
        checkpoint.save_kmeans(path, model, mask)
        back, mask_back = checkpoint.load_kmeans(path)
        np.testing.assert_array_equal(back.centroids, model.centroids)
        np.testing.assert_array_equal(back.assignments, model.assignments)
        np.testing.assert_array_equal(back.month_modal, model.month_modal)
        assert back.inertia == model.inertia
        assert_same_mask(mask_back, mask)

    def test_monthly_roundtrip_preserves_nan(self, tmp_path):
        ds = small_dataset()
        model = monthly_hour_fit(ds, 0)
        mask = derive_dark_mask(ds, 0)
        path = tmp_path / "mh.npz"
        checkpoint.save_monthly(path, model, mask)
        back, mask_back = checkpoint.load_monthly(path)
        assert_same_mask(mask_back, mask)
        np.testing.assert_array_equal(
            np.isnan(back.table), np.isnan(model.table)
        )
        np.testing.assert_array_equal(
            back.table[~np.isnan(back.table)],
            model.table[~np.isnan(model.table)],
        )
