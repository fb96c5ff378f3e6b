import numpy as np
import pytest

from pvdispatch import checkpoint
from pvdispatch.baselines import kmeans_fit, monthly_hour_fit
from pvdispatch.checkpoint import CheckpointError
from pvdispatch.data import (
    NormalizationParams,
    TimeSeriesDataset,
    WindowSpec,
    derive_dark_mask,
    fit_normalizer,
)
from pvdispatch.lstm import NetworkConfig, init_params, predict_series


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
        normalizer = NormalizationParams(
            np.array([0.0, 1.0, 2.0]), np.array([10.0, 11.0, 12.0])
        )
        ds = small_dataset()
        mask = derive_dark_mask(ds, 0)
        path = tmp_path / "model.npz"
        # Trained parameters are float32; earlier versions wrote float64.
        for dtype in (np.float64, np.float32):
            params = init_params(cfg).map(lambda a: a.astype(dtype))
            checkpoint.save_lstm(path, cfg, params, normalizer, mask)
            cfg2, params2, normalizer2, mask2 = checkpoint.load_lstm(path)
            assert cfg2 == cfg
            for a, b in zip(params.leaves(), params2.leaves(), strict=True):
                assert b.dtype == dtype and a.tobytes() == b.tobytes()
            np.testing.assert_array_equal(
                normalizer2.feature_min, normalizer.feature_min
            )
            assert normalizer2.feature_max.dtype == np.float64
            assert_same_mask(mask2, mask)

    def test_float64_checkpoint_forecasts_as_in_memory(self, tmp_path):
        """A float64 checkpoint, as earlier versions wrote, forecasts in
        float64: the bytes of its in-memory parameters' forecast."""
        ds = small_dataset()
        cfg = NetworkConfig(input_features=1, layer_sizes=(6, 4), seed=5)
        params = init_params(cfg)
        normalizer = fit_normalizer(ds)
        mask = derive_dark_mask(ds, 0)
        path = tmp_path / "model.npz"
        checkpoint.save_lstm(path, cfg, params, normalizer, mask)
        _, back, normalizer_back, mask_back = checkpoint.load_lstm(path)
        assert {leaf.dtype for leaf in back.leaves()} == {np.dtype(np.float64)}
        spec = WindowSpec(24, 12, 0)
        before = predict_series(params, cfg, ds, spec, normalizer, mask)
        after = predict_series(back, cfg, ds, spec, normalizer_back, mask_back)
        assert after.values.dtype == np.float64
        assert before.values.tobytes() == after.values.tobytes()

    @pytest.mark.parametrize(
        "damage",
        [
            ("layer1_w_rec", np.float64),  # one layer float64, the rest float32
            ("dense_w", np.float32),  # one leaf float32, the rest float64
            ("layer0_bias", np.int64),
            ("dense_b", np.float16),
        ],
        ids=["float64_in_float32", "float32_in_float64", "int64", "float16"],
    )
    def test_parameter_dtypes_must_be_one_float_kind(self, tmp_path, damage):
        name, dtype = damage
        cfg = NetworkConfig(input_features=1, layer_sizes=(3, 2))
        params = init_params(cfg)
        if name == "layer1_w_rec":
            params = params.map(lambda a: a.astype(np.float32))
        path = tmp_path / "model.npz"
        checkpoint.save_lstm(
            path, cfg, params,
            NormalizationParams(np.array([0.0]), np.array([1.0])),
            derive_dark_mask(small_dataset(), 0),
        )
        with np.load(path) as archive:
            arrays = dict(archive)
        arrays[name] = arrays[name].astype(dtype)
        with path.open("wb") as fh:
            np.savez(fh, **arrays)
        with pytest.raises(CheckpointError, match="dtypes") as err:
            checkpoint.load_lstm(path)
        assert str(err.value).startswith(f"{path}: ")

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
