import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    from_vector,
    masked_logistic,
    reference_adam_step,
    reference_backward,
    reference_forward_batch,
    reference_sigmoid,
    to_vector,
)

from pvdispatch import lstm
from pvdispatch.data import (
    DarkHourMask,
    DataError,
    NormalizationParams,
    TimeSeriesDataset,
    WindowSpec,
    derive_dark_mask,
    fit_normalizer,
)
from pvdispatch.lstm import (
    AdamState,
    DivergenceError,
    NetworkConfig,
    TrainingConfig,
    ADAM_EPS,
    PREDICT_CHUNK,
    adam_step,
    backward,
    forward_batch,
    init_params,
    loss_mse,
    predict_series,
    train,
    train_epochs,
)


def sigmoid(x: float) -> float:
    return 1.0 / (1.0 + math.exp(-x))


def sigmoid_inputs() -> tuple[np.ndarray, np.ndarray]:
    """A (32, 256) gate block and the edge values of the gate sigmoid."""
    rng = np.random.Generator(np.random.PCG64(8))
    block = 8.0 * rng.standard_normal((32, 256))
    edges = np.array(
        [0.0, -0.0, 1e-300, -1e-300, 800.0, -800.0, np.inf, -np.inf,
         745.0, -745.0, 746.0, -746.0, 5e-324, -5e-324]
    )
    return block, edges


def jostled_params(cfg: NetworkConfig, seed: int):
    """Parameters at a generic point: init plus noise on every leaf, so no
    rectifier pre-activation sits exactly on its kink."""
    params = init_params(cfg)
    rng = np.random.Generator(np.random.PCG64(seed + 7919))
    for leaf in params.leaves():
        leaf += rng.uniform(-0.1, 0.1, size=leaf.shape)
    return params


def numeric_gradient(params, cfg, inputs, labels, training, dropout_seed, h=1e-5):
    vec = to_vector(params)
    out = np.empty_like(vec)
    for i in range(vec.size):
        vp = vec.copy()
        vp[i] += h
        vm = vec.copy()
        vm[i] -= h
        pp, _ = forward_batch(
            from_vector(params, vp), cfg, inputs, training, dropout_seed
        )
        pm, _ = forward_batch(
            from_vector(params, vm), cfg, inputs, training, dropout_seed
        )
        out[i] = (loss_mse(pp, labels) - loss_mse(pm, labels)) / (2.0 * h)
    return out


def gradients_match(analytic, numeric, rel_tol=1e-4, abs_tol=1e-6):
    err = np.abs(analytic - numeric)
    denom = np.maximum(np.abs(analytic), np.abs(numeric))
    ok = (err <= abs_tol) | (err <= rel_tol * denom)
    return bool(ok.all())


class TestInit:
    def test_shapes(self):
        cfg = NetworkConfig(input_features=3, layer_sizes=(64, 32))
        params = init_params(cfg)
        assert params.layers[0].w_in.shape == (256, 3)
        assert params.layers[0].w_rec.shape == (256, 64)
        assert params.layers[1].w_in.shape == (128, 64)
        assert params.dense_w.shape == (32,)

    def test_forget_bias_one_everything_else_zero(self):
        cfg = NetworkConfig(input_features=2, layer_sizes=(4,))
        params = init_params(cfg)
        b = params.layers[0].bias
        np.testing.assert_array_equal(b[4:8], 1.0)
        np.testing.assert_array_equal(b[:4], 0.0)
        np.testing.assert_array_equal(b[8:], 0.0)

    def test_bounds_respect_fan_in(self):
        cfg = NetworkConfig(input_features=4, layer_sizes=(9,))
        params = init_params(cfg)
        assert np.abs(params.layers[0].w_in).max() <= 1 / math.sqrt(4)
        assert np.abs(params.layers[0].w_rec).max() <= 1 / math.sqrt(9)

    def test_deterministic_per_seed(self):
        cfg = NetworkConfig(input_features=2, layer_sizes=(5, 3), seed=9)
        a, b = init_params(cfg), init_params(cfg)
        for la, lb in zip(a.leaves(), b.leaves()):
            np.testing.assert_array_equal(la, lb)

    def test_different_seeds_differ(self):
        p1 = init_params(NetworkConfig(input_features=2, layer_sizes=(5,), seed=1))
        p2 = init_params(NetworkConfig(input_features=2, layer_sizes=(5,), seed=2))
        assert not np.array_equal(p1.layers[0].w_in, p2.layers[0].w_in)


class TestForward:
    def test_all_zero_params_predict_zero(self):
        cfg = NetworkConfig(input_features=2, layer_sizes=(4, 3), dropout_rate=0.0)
        params = init_params(cfg)
        for leaf in params.leaves():
            leaf[...] = 0.0  # includes the forget bias
        rng = np.random.Generator(np.random.PCG64(0))
        pred, _ = forward_batch(params, cfg, rng.uniform(0, 1, (6, 2))[None])
        assert pred[0] == 0.0

    def test_single_cell_matches_hand_computation(self):
        cfg = NetworkConfig(input_features=1, layer_sizes=(1,), dropout_rate=0.0)
        params = init_params(cfg)
        # One unit, one step: set every weight explicitly.
        wi, wf, wg, wo = 0.3, -0.2, 0.8, 0.5
        bi, bf, bg, bo = 0.1, 0.2, -0.1, 0.05
        params.layers[0].w_in[:, 0] = [wi, wf, wg, wo]
        params.layers[0].w_rec[...] = 0.7  # irrelevant at t=0 (h_prev = 0)
        params.layers[0].bias[...] = [bi, bf, bg, bo]
        params.dense_w[...] = 1.5
        params.dense_b[...] = -0.25
        x = 0.9
        i = sigmoid(wi * x + bi)
        g = max(wg * x + bg, 0.0)
        o = sigmoid(wo * x + bo)
        c = i * g  # c_prev = 0 makes the forget gate moot
        h = o * max(c, 0.0)
        expected = 1.5 * h - 0.25
        pred, _ = forward_batch(params, cfg, np.array([[x]])[None])
        assert pred[0] == pytest.approx(expected, rel=1e-12)

    def test_inference_ignores_dropout_seed(self):
        cfg = NetworkConfig(input_features=2, layer_sizes=(5, 4), dropout_rate=0.5)
        params = jostled_params(cfg, 0)
        rng = np.random.Generator(np.random.PCG64(1))
        window = rng.uniform(0, 1, (8, 2))
        a, _ = forward_batch(
            params, cfg, window[None], training_mode=False, dropout_seed=1
        )
        b, _ = forward_batch(
            params, cfg, window[None], training_mode=False, dropout_seed=999
        )
        assert a[0] == b[0]

    def test_training_dropout_changes_output(self):
        cfg = NetworkConfig(input_features=2, layer_sizes=(8,), dropout_rate=0.5)
        params = jostled_params(cfg, 3)
        rng = np.random.Generator(np.random.PCG64(2))
        window = rng.uniform(0, 1, (6, 2))
        outs = {
            forward_batch(
                params, cfg, window[None], training_mode=True, dropout_seed=s
            )[0][0]
            for s in range(8)
        }
        assert len(outs) > 1

    def test_shape_mismatch_rejected(self):
        cfg = NetworkConfig(input_features=3, layer_sizes=(4,))
        params = init_params(cfg)
        with pytest.raises(ValueError, match="features"):
            forward_batch(params, cfg, np.zeros((5, 2))[None])

    def test_nonfinite_reported_as_divergence(self):
        cfg = NetworkConfig(input_features=1, layer_sizes=(2,), dropout_rate=0.0)
        params = init_params(cfg)
        params.dense_w[...] = np.inf
        with pytest.raises(DivergenceError):
            forward_batch(params, cfg, np.ones((3, 1))[None])


class TestLoss:
    @given(
        st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=16),
        st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=16),
    )
    @settings(max_examples=60, deadline=None)
    def test_nonnegative_and_sign_symmetric(self, a, b):
        n = min(len(a), len(b))
        preds = np.array(a[:n])
        labels = np.array(b[:n])
        value = loss_mse(preds, labels)
        assert value >= 0.0
        assert loss_mse(labels, preds) == pytest.approx(value, rel=1e-12)

    def test_perfect(self):
        assert loss_mse(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0

    def test_unit_errors(self):
        assert loss_mse(np.array([0.0, 0.0]), np.array([1.0, 1.0])) == 1.0

    def test_single(self):
        assert loss_mse(np.array([2.0]), np.array([0.0])) == 4.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            loss_mse(np.array([]), np.array([]))


class TestBackward:
    def test_perfect_predictions_zero_dense_gradient(self):
        cfg = NetworkConfig(input_features=2, layer_sizes=(3,), dropout_rate=0.0)
        params = jostled_params(cfg, 1)
        rng = np.random.Generator(np.random.PCG64(4))
        inputs = rng.uniform(0, 1, (4, 5, 2))
        preds, cache = forward_batch(params, cfg, inputs)
        grads = backward(params, cache, preds.copy())
        np.testing.assert_array_equal(grads.dense_w, 0.0)
        np.testing.assert_array_equal(grads.dense_b, 0.0)

    def test_doubling_residual_doubles_dense_gradient(self):
        cfg = NetworkConfig(input_features=2, layer_sizes=(3, 2), dropout_rate=0.0)
        params = jostled_params(cfg, 2)
        rng = np.random.Generator(np.random.PCG64(5))
        inputs = rng.uniform(0, 1, (3, 4, 2))
        preds, cache = forward_batch(params, cfg, inputs)
        labels = preds - rng.uniform(0.1, 1.0, preds.shape)
        labels2 = preds - 2.0 * (preds - labels)
        g1 = backward(params, cache, labels)
        g2 = backward(params, cache, labels2)
        np.testing.assert_allclose(g2.dense_w, 2.0 * g1.dense_w, rtol=1e-12)
        np.testing.assert_allclose(g2.dense_b, 2.0 * g1.dense_b, rtol=1e-12)

    def test_finite_difference_small_net(self):
        cfg = NetworkConfig(input_features=2, layer_sizes=(3, 2), dropout_rate=0.0)
        params = jostled_params(cfg, 11)
        rng = np.random.Generator(np.random.PCG64(11))
        inputs = rng.uniform(0, 1, (2, 4, 2))
        labels = rng.uniform(0, 1, 2)
        preds, cache = forward_batch(params, cfg, inputs)
        analytic = to_vector(backward(params, cache, labels))
        numeric = numeric_gradient(params, cfg, inputs, labels, False, 0)
        assert gradients_match(analytic, numeric)

    def test_finite_difference_with_dropout_mask_fixed(self):
        cfg = NetworkConfig(input_features=2, layer_sizes=(3, 2), dropout_rate=0.4)
        params = jostled_params(cfg, 12)
        rng = np.random.Generator(np.random.PCG64(12))
        inputs = rng.uniform(0, 1, (3, 4, 2))
        labels = rng.uniform(0, 1, 3)
        preds, cache = forward_batch(
            params, cfg, inputs, training_mode=True, dropout_seed=77
        )
        analytic = to_vector(backward(params, cache, labels))
        numeric = numeric_gradient(params, cfg, inputs, labels, True, 77)
        assert gradients_match(analytic, numeric)

    def test_tanh_variant_gradient(self):
        cfg = NetworkConfig(
            input_features=2, layer_sizes=(3,), dropout_rate=0.0,
            cell_activation="tanh",
        )
        params = jostled_params(cfg, 13)
        rng = np.random.Generator(np.random.PCG64(13))
        inputs = rng.uniform(0, 1, (2, 5, 2))
        labels = rng.uniform(0, 1, 2)
        _, cache = forward_batch(params, cfg, inputs)
        analytic = to_vector(backward(params, cache, labels))
        numeric = numeric_gradient(params, cfg, inputs, labels, False, 0)
        assert gradients_match(analytic, numeric)


class TestReferenceLoops:
    """The stacked gate cache gives the bytes of the per-gate reference loops."""

    def test_sigmoid_byte_identical_to_tanh_form(self):
        for x in sigmoid_inputs():
            for dtype in (np.float64, np.float32):
                xd = x.astype(dtype)
                assert lstm.sigmoid(xd).tobytes() == reference_sigmoid(xd).tobytes()
                out = np.empty_like(xd)
                assert lstm.sigmoid(xd, out=out) is out
                assert out.tobytes() == reference_sigmoid(xd).tobytes()
        assert np.isnan(lstm.sigmoid(np.array([np.nan]))).all()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "dtype, tol", [(np.float64, 2.0**-52), (np.float32, 2.0**-23)]
    )
    def test_sigmoid_accuracy_against_masked_logistic(self, dtype, tol):
        for x in sigmoid_inputs():
            xd = x.astype(dtype)
            y = lstm.sigmoid(xd)
            assert y.dtype == dtype
            assert ((y >= 0.0) & (y <= 1.0)).all()
            assert np.abs(y - masked_logistic(xd)).max() <= tol

    @pytest.mark.parametrize("batch", [1, 17])
    @pytest.mark.parametrize("dropout", [0.0, 0.4])
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("layers", [(5,), (6, 4), (7, 5, 3)])
    def test_predictions_and_gradients_byte_identical(
        self, layers, activation, dropout, batch
    ):
        cfg = NetworkConfig(
            input_features=3, layer_sizes=layers, dropout_rate=dropout,
            cell_activation=activation,
        )
        params = jostled_params(cfg, len(layers))
        rng = np.random.Generator(np.random.PCG64(batch))
        inputs = rng.uniform(0, 1, (batch, 6, 3))
        labels = rng.uniform(0, 1, batch)
        training = dropout > 0.0
        preds, cache = forward_batch(params, cfg, inputs, training, 31)
        ref_preds, ref_cache = reference_forward_batch(
            params, cfg, inputs, training, 31
        )
        assert preds.tobytes() == ref_preds.tobytes()
        grads = backward(params, cache, labels).leaves()
        ref_grads = reference_backward(params, ref_cache, labels).leaves()
        for leaf, ref_leaf in zip(grads, ref_grads, strict=True):
            assert leaf.tobytes() == ref_leaf.tobytes()

    def test_in_place_adam_byte_identical_to_copying_step(self):
        cfg = NetworkConfig(input_features=3, layer_sizes=(6, 4))
        params = jostled_params(cfg, 2)
        state = AdamState.init(params, lr=3e-3)
        ref_params = params.copy()
        ref_state = AdamState.init(ref_params, lr=3e-3)
        rng = np.random.Generator(np.random.PCG64(11))
        for _ in range(50):
            grads = params.map(lambda a: rng.standard_normal(a.shape))
            adam_step(params, grads, state)
            ref_params, ref_state = reference_adam_step(ref_params, grads, ref_state)
        assert state.t == ref_state.t == 50
        for ours, ref in (
            (params, ref_params), (state.m, ref_state.m), (state.v, ref_state.v)
        ):
            for leaf, ref_leaf in zip(ours.leaves(), ref.leaves(), strict=True):
                assert leaf.tobytes() == ref_leaf.tobytes()


class TestAdam:
    def _tiny(self, seed=0):
        cfg = NetworkConfig(input_features=1, layer_sizes=(2,), seed=seed)
        return cfg, init_params(cfg)

    def test_zero_gradient_keeps_params(self):
        cfg, params = self._tiny()
        before = params.copy()
        state = AdamState.init(params)
        adam_step(params, params.zeros_like(), state)
        assert state.t == 1
        for a, b in zip(before.leaves(), params.leaves()):
            np.testing.assert_array_equal(a, b)

    def test_first_step_is_signed_learning_rate(self):
        # At t=1 the bias-corrected update is -lr * g / (|g| + eps).
        cfg, params = self._tiny()
        grads = params.zeros_like()
        for leaf in grads.leaves():
            leaf[...] = np.random.Generator(np.random.PCG64(0)).uniform(
                0.5, 2.0, leaf.shape
            ) * np.sign(np.random.Generator(np.random.PCG64(1)).uniform(
                -1, 1, leaf.shape
            ))
        lr = 1e-3
        start = params.copy()
        state = AdamState.init(params, lr=lr)
        adam_step(params, grads, state)
        for before, after, g in zip(
            start.leaves(), params.leaves(), grads.leaves()
        ):
            expected = before - lr * g / (np.abs(g) + ADAM_EPS)
            np.testing.assert_allclose(after, expected, rtol=1e-9)
            np.testing.assert_allclose(
                after - before, -lr * np.sign(g), rtol=1e-6
            )

    def test_deterministic(self):
        cfg, params = self._tiny()
        grads = params.zeros_like()
        for leaf in grads.leaves():
            leaf[...] = 0.3
        a_params, b_params = params.copy(), params.copy()
        a_state = AdamState.init(a_params)
        adam_step(a_params, grads, a_state)
        b_state = AdamState.init(b_params)
        adam_step(b_params, grads, b_state)
        for a, b in zip(a_params.leaves(), b_params.leaves()):
            np.testing.assert_array_equal(a, b)
        assert a_state.t == b_state.t == 1


class TestFloat32:
    """Parameters in float32 keep every array of a training step in float32."""

    def test_forward_backward_adam_stay_float32(self):
        cfg = NetworkConfig(input_features=3, layer_sizes=(6, 4), dropout_rate=0.3)
        params = jostled_params(cfg, 5).map(lambda a: a.astype(np.float32))
        rng = np.random.Generator(np.random.PCG64(5))
        inputs = rng.uniform(0, 1, (7, 5, 3))  # float64, cast by the pass
        labels = rng.uniform(0, 1, 7)
        preds, cache = forward_batch(params, cfg, inputs, True, 3)
        cached = [a for layer in cache["layers"] for a in layer]
        cached += [cache["h_drop"], cache["keep"], cache["predictions"], preds]
        grads = backward(params, cache, labels)
        state = AdamState.init(params)
        for _ in range(2):
            adam_step(params, grads, state)
        arrays = cached + [
            leaf for tree in (grads, params, state.m, state.v) for leaf in tree.leaves()
        ]
        assert {a.dtype for a in arrays} == {np.dtype(np.float32)}
        assert all(np.isfinite(a).all() for a in arrays)

    @pytest.mark.parametrize("dropout", [0.0, 0.4])
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_predictions_and_gradients_match_reference_bytes(
        self, activation, dropout
    ):
        """No float64 intermediate: a promoted step would move the bytes."""
        cfg = NetworkConfig(
            input_features=3, layer_sizes=(6, 4), dropout_rate=dropout,
            cell_activation=activation,
        )
        params = jostled_params(cfg, 2).map(lambda a: a.astype(np.float32))
        rng = np.random.Generator(np.random.PCG64(3))
        inputs = rng.uniform(0, 1, (17, 6, 3))
        labels = rng.uniform(0, 1, 17)
        preds, cache = forward_batch(params, cfg, inputs, dropout > 0.0, 31)
        ref_preds, ref_cache = reference_forward_batch(
            params, cfg, inputs, dropout > 0.0, 31
        )
        assert preds.tobytes() == ref_preds.tobytes()
        grads = backward(params, cache, labels).leaves()
        ref_grads = reference_backward(params, ref_cache, labels).leaves()
        for leaf, ref_leaf in zip(grads, ref_grads, strict=True):
            assert leaf.tobytes() == ref_leaf.tobytes()


class TestTrain:
    def _toy(self, n=10, p=6, f=2, seed=0):
        rng = np.random.Generator(np.random.PCG64(seed))
        return rng.uniform(0, 1, (n, p, f)), rng.uniform(0, 1, n)

    def test_memorizes_toy_set(self):
        X, y = self._toy()
        net = NetworkConfig(input_features=2, layer_sizes=(64, 32), dropout_rate=0.0)
        tc = TrainingConfig(epochs=500, batch_size=32, learning_rate=1e-3, seed=0)
        _, history = train((X, y), net, tc)
        assert history[-1] < 1e-3
        assert history[-1] < history[0]

    def test_history_length_matches_epochs(self):
        X, y = self._toy()
        net = NetworkConfig(input_features=2, layer_sizes=(4, 3), dropout_rate=0.0)
        tc = TrainingConfig(epochs=5, batch_size=4, seed=1)
        _, history = train((X, y), net, tc)
        assert len(history) == 5

    def test_bit_identical_reruns(self):
        X, y = self._toy(seed=3)
        net = NetworkConfig(input_features=2, layer_sizes=(5, 3), seed=4)
        tc = TrainingConfig(epochs=6, batch_size=4, seed=5)
        p1, h1 = train((X, y), net, tc)
        p2, h2 = train((X, y), net, tc)
        assert h1 == h2
        for a, b in zip(p1.leaves(), p2.leaves()):
            np.testing.assert_array_equal(a, b)

    def test_train_is_the_last_epoch_of_train_epochs(self):
        X, y = self._toy(seed=6)
        net = NetworkConfig(input_features=2, layer_sizes=(5, 3), seed=7)
        tc = TrainingConfig(epochs=4, batch_size=3, seed=8)
        params, history = train((X, y), net, tc)
        epochs = list(train_epochs((X, y), net, tc))
        assert history == [mse for _, mse in epochs]
        for a, b in zip(params.leaves(), epochs[-1][0].leaves(), strict=True):
            assert a.tobytes() == b.tobytes()

    def test_empty_rejected(self):
        net = NetworkConfig(input_features=2, layer_sizes=(3,))
        with pytest.raises(ValueError):
            train((np.empty((0, 6, 2)), np.empty(0)), net, TrainingConfig(epochs=1))

    def test_trains_in_float32(self):
        X, y = self._toy(seed=9)
        net = NetworkConfig(input_features=2, layer_sizes=(5, 3), dropout_rate=0.3)
        tc = TrainingConfig(epochs=3, batch_size=4, lr_decay=0.9, seed=1)
        params, history = train((X, y), net, tc)
        assert [leaf.dtype for leaf in params.leaves()] == [np.float32] * 8
        assert all(math.isfinite(mse) for mse in history)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergence_aborts_with_epoch(self):
        X, y = self._toy()
        net = NetworkConfig(input_features=2, layer_sizes=(4,), dropout_rate=0.0)
        tc = TrainingConfig(epochs=3, batch_size=4, learning_rate=1e30, seed=0)
        with pytest.raises(DivergenceError, match="epoch"):
            train((X, y), net, tc)


class TestPredictSeries:
    def _dataset(self, n=24 * 20, f=2, seed=0):
        ts = np.datetime64("2023-03-01T00", "h") + np.arange(n)
        rng = np.random.Generator(np.random.PCG64(seed))
        vals = rng.uniform(0.0, 8.0, size=(n, f))
        hours = ts.astype("datetime64[h]").astype(np.int64) % 24
        vals[hours < 6, 0] = 0.0
        return TimeSeriesDataset(ts, vals, tuple(f"a{i}" for i in range(f)))

    def test_alignment_and_count(self):
        ds = self._dataset()
        spec = WindowSpec(24, 12, 0)
        cfg = NetworkConfig(input_features=2, layer_sizes=(4, 3), dropout_rate=0.0)
        params = init_params(cfg)
        normalizer = fit_normalizer(ds)
        series = predict_series(params, cfg, ds, spec, normalizer)
        assert series.n == ds.n - 24 - 12 + 1
        assert series.timestamps[0] == ds.timestamps[24 + 12 - 1]
        assert series.timestamps[-1] == ds.timestamps[-1]

    def test_full_year_target_hour_count(self):
        n = 8760
        ts = np.datetime64("2023-01-01T00", "h") + np.arange(n)
        rng = np.random.Generator(np.random.PCG64(3))
        ds = TimeSeriesDataset(
            ts, rng.uniform(0.0, 5.0, size=(n, 1)), ("pv",)
        )
        spec = WindowSpec(24, 12, 0)
        cfg = NetworkConfig(input_features=1, layer_sizes=(2,), dropout_rate=0.0)
        series = predict_series(
            init_params(cfg), cfg, ds, spec, fit_normalizer(ds)
        )
        assert series.n == 8760 - 24 - 12 + 1

    def test_masked_slots_exactly_zero(self):
        ds = self._dataset()
        spec = WindowSpec(24, 12, 0)
        cfg = NetworkConfig(input_features=2, layer_sizes=(4, 3), dropout_rate=0.0)
        params = jostled_params(cfg, 21)
        normalizer = fit_normalizer(ds)
        mask = derive_dark_mask(ds, 0)
        series = predict_series(params, cfg, ds, spec, normalizer, mask)
        hours = series.timestamps.astype("datetime64[h]").astype(np.int64) % 24
        assert (series.values[hours < 6] == 0.0).all()

    def test_negative_denormalized_output_clipped(self):
        ds = self._dataset(f=1)
        spec = WindowSpec(4, 1, 0)
        cfg = NetworkConfig(input_features=1, layer_sizes=(2,), dropout_rate=0.0)
        params = init_params(cfg)
        for leaf in params.leaves():
            leaf[...] = 0.0
        params.dense_b[...] = -3.0  # raw output -3 everywhere
        normalizer = NormalizationParams(np.array([1.0]), np.array([2.0]))
        series = predict_series(params, cfg, ds, spec, normalizer)
        # -3 denormalizes to -2 MW, clipped to 0
        assert (series.values == 0.0).all()

    def test_insufficient_history(self):
        ds = self._dataset(n=30)
        spec = WindowSpec(24, 12, 0)
        cfg = NetworkConfig(input_features=2, layer_sizes=(3,))
        params = init_params(cfg)
        with pytest.raises(DataError):
            predict_series(params, cfg, ds, spec, fit_normalizer(ds))

    def test_predictions_do_not_depend_on_chunk_size(self, monkeypatch):
        spec = WindowSpec(24, 1, 0)
        ds = self._dataset(n=1100 + 24, f=3)
        cfg = NetworkConfig(input_features=3, layer_sizes=(64, 32), dropout_rate=0.0)
        params = jostled_params(cfg, 64)
        params.dense_b[...] = 2.0  # no prediction is clipped to 0 MW
        normalizer = fit_normalizer(ds)
        out = []
        for chunk in (1024, 256):
            monkeypatch.setattr(lstm, "PREDICT_CHUNK", chunk)
            out.append(predict_series(params, cfg, ds, spec, normalizer).values)
        assert out[0].size == 1100 and (out[0] > 0.0).all()
        assert out[0].tobytes() == out[1].tobytes()

    def test_peak_memory_is_one_chunk(self):
        # Three chunks must not hold more than one chunk's activations at a
        # time; a kept cache would roughly double the peak.
        spec = WindowSpec(8, 1, 0)
        ds = self._dataset(n=3 * PREDICT_CHUNK + 8)
        cfg = NetworkConfig(input_features=2, layer_sizes=(16, 8), dropout_rate=0.0)
        params = init_params(cfg)
        normalizer = fit_normalizer(ds)
        block = np.zeros((PREDICT_CHUNK, spec.lookback_p, 2))
        tracemalloc.start()
        try:
            forward_batch(params, cfg, block)
            one_chunk = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            series = predict_series(params, cfg, ds, spec, normalizer)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert series.n == 3 * PREDICT_CHUNK
        # The inference pass keeps no cache: well under one training chunk.
        assert peak < 0.5 * one_chunk

    @pytest.mark.parametrize("batch", [1, 17, 181, PREDICT_CHUNK])
    @pytest.mark.parametrize("dropout", [0.0, 0.3])
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("layers", [(5,), (6, 4), (7, 5, 3)])
    def test_matches_forward_batch_bytes(self, layers, activation, dropout, batch):
        # One full chunk and one of `batch` windows. The identity normalizer
        # and a positive head bias keep the raw predictions unscaled and
        # unclipped, so they can be compared with forward_batch's directly.
        # Both parameter dtypes: trained (float32) and earlier (float64).
        spec = WindowSpec(6, 1, 0)
        n_samples = PREDICT_CHUNK + batch
        ds = self._dataset(n=n_samples + spec.lookback_p, f=3, seed=batch)
        ds = TimeSeriesDataset(ds.timestamps, ds.values / 8.0, ds.feature_names)
        cfg = NetworkConfig(
            input_features=3, layer_sizes=layers, dropout_rate=dropout,
            cell_activation=activation,
        )
        identity = NormalizationParams(np.zeros(3), np.ones(3))
        p = spec.lookback_p
        windows = np.stack([ds.values[k : k + p] for k in range(n_samples)])
        for dtype in (np.float64, np.float32):
            params = jostled_params(cfg, len(layers)).map(lambda a: a.astype(dtype))
            params.dense_b[...] = 10.0
            series = predict_series(params, cfg, ds, spec, identity)
            expected = np.concatenate([
                forward_batch(params, cfg, windows[:PREDICT_CHUNK])[0],
                forward_batch(params, cfg, windows[PREDICT_CHUNK:])[0],
            ])
            assert expected.dtype == dtype and (expected > 0.0).all()
            assert series.values.dtype == np.float64
            assert series.values.tobytes() == expected.astype(np.float64).tobytes()

    def _record_windows(self, monkeypatch) -> list[np.ndarray]:
        """Have lstm._predict_windows keep a copy of every block it is given."""
        blocks: list[np.ndarray] = []
        run = lstm._predict_windows

        def recording(params, config, inputs):
            blocks.append(inputs.copy())
            return run(params, config, inputs)

        monkeypatch.setattr(lstm, "_predict_windows", recording)
        return blocks

    def test_mask_runs_only_lit_windows(self, monkeypatch):
        # Hours 0-5 are dark: 360 of the 474 windows target a lit hour, so
        # the lit windows fill one PREDICT_CHUNK and part of a second.
        spec = WindowSpec(6, 1, 0)
        ds = self._dataset(f=3, seed=4)
        ds = TimeSeriesDataset(ds.timestamps, ds.values / 8.0, ds.feature_names)
        mask = derive_dark_mask(ds, 0)
        cfg = NetworkConfig(input_features=3, layer_sizes=(6, 4), dropout_rate=0.0)
        identity = NormalizationParams(np.zeros(3), np.ones(3))
        p, n_samples = spec.lookback_p, ds.n - spec.lookback_p
        windows = np.stack([ds.values[k : k + p] for k in range(n_samples)])
        hours = ds.timestamps[p:].astype(np.int64) % 24
        lit = np.flatnonzero(hours >= 6)
        assert PREDICT_CHUNK < lit.size < 2 * PREDICT_CHUNK
        blocks = self._record_windows(monkeypatch)
        for dtype in (np.float64, np.float32):
            blocks.clear()
            params = jostled_params(cfg, 2).map(lambda a: a.astype(dtype))
            params.dense_b[...] = 10.0  # no lit prediction is clipped
            series = predict_series(params, cfg, ds, spec, identity, mask)
            sizes = [block.shape[0] for block in blocks]
            assert sizes == [PREDICT_CHUNK, lit.size - PREDICT_CHUNK]
            passed = np.concatenate(blocks)
            assert passed.tobytes() == windows[lit].astype(dtype).tobytes()
            expected = np.concatenate([
                forward_batch(params, cfg, windows[lit[:PREDICT_CHUNK]])[0],
                forward_batch(params, cfg, windows[lit[PREDICT_CHUNK:]])[0],
            ])
            values = series.values[:, 0]
            assert values[lit].tobytes() == expected.astype(np.float64).tobytes()
            assert (values[hours < 6] == 0.0).all()
            assert (values[lit] > 0.0).all()

    def test_without_mask_every_window_runs(self, monkeypatch):
        spec = WindowSpec(6, 1, 0)
        ds = self._dataset(f=2)
        cfg = NetworkConfig(input_features=2, layer_sizes=(4, 3), dropout_rate=0.0)
        blocks = self._record_windows(monkeypatch)
        series = predict_series(init_params(cfg), cfg, ds, spec, fit_normalizer(ds))
        assert sum(b.shape[0] for b in blocks) == series.n == ds.n - spec.lookback_p

    def test_mask_undefined_month_rejected(self):
        ds = self._dataset()  # March only
        mask = derive_dark_mask(ds, 0)
        defined = np.ones(12, dtype=bool)
        defined[2] = False
        mask = DarkHourMask(mask.table, defined)
        cfg = NetworkConfig(input_features=2, layer_sizes=(3,))
        with pytest.raises(DataError, match="month 3"):
            predict_series(
                init_params(cfg), cfg, ds, WindowSpec(6, 1, 0), fit_normalizer(ds), mask
            )

    def test_nonfinite_reported_as_divergence(self):
        ds = self._dataset(f=1)
        cfg = NetworkConfig(input_features=1, layer_sizes=(2,), dropout_rate=0.0)
        params = init_params(cfg)
        params.dense_w[...] = np.inf
        # A zero hidden state meets the inf weight: inf * 0 warns as invalid.
        with np.errstate(invalid="ignore"), pytest.raises(DivergenceError):
            predict_series(params, cfg, ds, WindowSpec(4, 1, 0), fit_normalizer(ds))
