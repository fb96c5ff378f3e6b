"""Two-layer recurrent forecaster trained from scratch with numpy.

Cell equations per timestep and layer, gate order (i, f, g, o):

    i = sigmoid(W_i x + U_i h_prev + b_i)      input gate
    f = sigmoid(W_f x + U_f h_prev + b_f)      forget gate
    g = relu(W_g x + U_g h_prev + b_g)         candidate
    o = sigmoid(W_o x + U_o h_prev + b_o)      output gate
    c = f * c_prev + i * g
    h = o * relu(c)

The rectifier replaces the usual tanh in both the candidate transform and
the cell-output transform; the three gates stay logistic, as
``0.5 * tanh(0.5 * x) + 0.5`` in place over each step's whole (B, 4H) block.
The first layer feeds its full hidden sequence to the second; only the final
hidden state of the top layer passes through inverted dropout (training mode
only) and a linear head.

Training is plain backpropagation through time with Adam updates on the
batch-mean squared error, in float32: :func:`train_epochs` casts the
parameters and windows once, and every other function computes in its
parameters' dtype. :func:`init_params` draws float64, the path on which the
analytic gradients are checked against central finite differences.
Forecasts (:func:`predict_series`) run the network only on the windows
whose target hour the dark-hour mask leaves lit.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from .data import (
    DarkHourMask,
    NormalizationParams,
    TimeSeriesDataset,
    WindowSpec,
    dark_slots,
    denormalize_feature,
    normalize,
    window_arrays,
)


class DivergenceError(RuntimeError):
    """A forward pass or training run produced a non-finite value."""


def sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    out = np.multiply(x, 0.5, out=out)
    np.tanh(out, out=out)
    out *= 0.5
    out += 0.5
    return out


# The inference pass calls the gate sigmoid through this name, bound once at
# import, so a profiler that wraps ``lstm.sigmoid`` times (and slows) only
# the gate calls of forward_batch, not every step of every forecast chunk.
_inference_sigmoid = sigmoid


def relu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.maximum(x, 0.0, out=out)


def _relu_grad(y: np.ndarray) -> np.ndarray:
    return (y > 0).astype(y.dtype)


@dataclass(frozen=True)
class NetworkConfig:
    """Architecture hyperparameters for the stacked recurrent forecaster."""

    input_features: int
    layer_sizes: tuple[int, ...] = (64, 32)
    dropout_rate: float = 0.2
    seed: int = 0

    def __post_init__(self) -> None:
        sizes = tuple(int(h) for h in self.layer_sizes)
        object.__setattr__(self, "layer_sizes", sizes)
        if self.input_features < 1:
            raise ValueError(f"input_features: {self.input_features} must be >= 1")
        if not sizes or any(h < 1 for h in sizes):
            raise ValueError(f"layer_sizes: {list(sizes)} must be non-empty, all >= 1")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate: {self.dropout_rate} must be in [0, 1)")


@dataclass
class LayerParams:
    """Gate-stacked weights for one recurrent layer.

    ``w_in`` is (4H, D), ``w_rec`` is (4H, H), ``bias`` is (4H,), with the
    four H-sized blocks ordered (i, f, g, o).
    """

    w_in: np.ndarray
    w_rec: np.ndarray
    bias: np.ndarray

    @property
    def hidden(self) -> int:
        return self.w_rec.shape[1]


@dataclass
class NetworkParameters:
    """All trainable state: per-layer gate stacks plus the linear head."""

    layers: list[LayerParams]
    dense_w: np.ndarray
    dense_b: np.ndarray

    def leaves(self) -> list[np.ndarray]:
        """Parameter arrays in a fixed traversal order."""
        out: list[np.ndarray] = []
        for layer in self.layers:
            out.extend((layer.w_in, layer.w_rec, layer.bias))
        out.extend((self.dense_w, self.dense_b))
        return out

    def map(self, fn: Callable[[np.ndarray], np.ndarray]) -> "NetworkParameters":
        """A parameter set of the same structure holding ``fn`` of each array."""
        return NetworkParameters(
            [LayerParams(fn(l.w_in), fn(l.w_rec), fn(l.bias)) for l in self.layers],
            fn(self.dense_w),
            fn(self.dense_b),
        )

    def copy(self) -> "NetworkParameters":
        return self.map(np.ndarray.copy)

    def zeros_like(self) -> "NetworkParameters":
        return self.map(np.zeros_like)


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# Windows per inference pass in predict_series; with a mask, a chunk holds lit
# windows only. Predictions depend on the GEMM batch size through BLAS: 64- or
# 128-window chunks move some by 1 ulp against 256, which is why the chunk
# stays at 256.
PREDICT_CHUNK = 256


@dataclass
class AdamState:
    """Adam moment accumulators, shaped like the parameters they update."""

    m: NetworkParameters
    v: NetworkParameters
    t: int = 0
    lr: float = 1e-3

    @classmethod
    def init(cls, params: NetworkParameters, lr: float = 1e-3) -> "AdamState":
        return cls(m=params.zeros_like(), v=params.zeros_like(), t=0, lr=lr)


@dataclass(frozen=True)
class TrainingConfig:
    epochs: int = 50
    batch_size: int = 32
    learning_rate: float = 1e-3
    seed: int = 0
    # Per-epoch multiplicative step-size decay; 1.0 keeps plain Adam.
    lr_decay: float = 1.0

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError(f"epochs: {self.epochs} must be >= 1")
        if self.batch_size < 1:
            raise ValueError(f"batch_size: {self.batch_size} must be >= 1")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError(
                f"learning_rate: {self.learning_rate} must be finite and > 0"
            )
        if not 0.0 < self.lr_decay <= 1.0:
            raise ValueError(f"lr_decay: {self.lr_decay} must be in (0, 1]")


def init_params(config: NetworkConfig) -> NetworkParameters:
    """Uniform +-1/sqrt(fan_in) weights, zero biases, forget-gate bias 1."""
    rng = np.random.Generator(np.random.PCG64(config.seed))
    layers = []
    d = config.input_features
    for h in config.layer_sizes:
        lim_in = 1.0 / math.sqrt(d)
        lim_rec = 1.0 / math.sqrt(h)
        w_in = rng.uniform(-lim_in, lim_in, size=(4 * h, d))
        w_rec = rng.uniform(-lim_rec, lim_rec, size=(4 * h, h))
        bias = np.zeros(4 * h)
        bias[h : 2 * h] = 1.0
        layers.append(LayerParams(w_in, w_rec, bias))
        d = h
    lim = 1.0 / math.sqrt(d)
    dense_w = rng.uniform(-lim, lim, size=d)
    dense_b = np.zeros(1)
    return NetworkParameters(layers, dense_w, dense_b)


def _check_window_shapes(
    params: NetworkParameters, config: NetworkConfig, inputs: np.ndarray
) -> None:
    if inputs.ndim != 3:
        raise ValueError("inputs must be (batch, p, features)")
    if inputs.shape[2] != config.input_features:
        raise ValueError(
            f"window has {inputs.shape[2]} features, config expects "
            f"{config.input_features}"
        )
    if len(params.layers) != len(config.layer_sizes) or any(
        l.hidden != h for l, h in zip(params.layers, config.layer_sizes)
    ):
        raise ValueError("parameters do not match the network config")


def _cell_step(
    pre: np.ndarray,
    gates: np.ndarray,
    c_prev: np.ndarray,
    c: np.ndarray,
    c_act: np.ndarray,
    h: np.ndarray,
    squash: Callable,
) -> None:
    """One step of the cell equations, in place: ``squash`` (the gate sigmoid)
    and ``relu`` fill the gate-major (4, B, H) ``gates`` from the (B, 4H) ``pre``;
    c, relu(c) and h go to ``c`` (which may be ``c_prev``), ``c_act`` and ``h``."""
    b, h_dim = c_prev.shape
    squash(pre.reshape(b, 4, h_dim).transpose(1, 0, 2), out=gates)
    relu(pre[:, 2 * h_dim : 3 * h_dim], out=gates[2])
    np.multiply(gates[1], c_prev, out=c)
    c += gates[0] * gates[2]
    relu(c, out=c_act)
    np.multiply(gates[3], c_act, out=h)


def _dense_head(params: NetworkParameters, h_top: np.ndarray) -> np.ndarray:
    predictions = h_top @ params.dense_w + params.dense_b[0]
    if not np.isfinite(predictions).all():
        raise DivergenceError("non-finite prediction in forward pass")
    return predictions


def forward_batch(
    params: NetworkParameters,
    config: NetworkConfig,
    inputs: np.ndarray,
    training_mode: bool = False,
    dropout_seed: int = 0,
) -> tuple[np.ndarray, dict]:
    """Run the stacked cells over a batch of (p, F) windows.

    Returns per-sample scalar predictions and the activation cache consumed
    by :func:`backward`. Each layer caches ``(x_seq, gates, cells_act,
    cells, hidden)``: the (p, B, D) input sequence, the activated gates
    (p, 4, B, H) in (i, f, g, o) order, ``relu(c)`` (p, B, H), and the cell
    and hidden states (p + 1, B, H), whose row 0 is the zero initial state.
    The input projection of all p steps, bias added, is one stacked matmul;
    each step applies ``sigmoid`` once to its (B, 4H) block and ``relu`` to g.
    Inputs, cache and predictions take the parameters' dtype.
    """
    dt = params.dense_w.dtype
    inputs = np.asarray(inputs, dtype=dt)
    _check_window_shapes(params, config, inputs)
    b, p, _ = inputs.shape

    layer_caches = []
    x_seq = inputs.transpose(1, 0, 2)  # (p, B, D)
    for layer in params.layers:
        h_dim = layer.hidden
        gates = np.empty((p, 4, b, h_dim), dt)
        cells_act = np.empty((p, b, h_dim), dt)
        cells = np.zeros((p + 1, b, h_dim), dt)
        hidden = np.zeros((p + 1, b, h_dim), dt)
        x_proj = x_seq @ layer.w_in.T  # (p, B, 4H)
        x_proj += layer.bias
        w_rec_t = layer.w_rec.T
        for t in range(p):
            x_proj[t] += hidden[t] @ w_rec_t
            _cell_step(
                x_proj[t], gates[t], cells[t], cells[t + 1], cells_act[t],
                hidden[t + 1], sigmoid,
            )
        del x_proj  # free it before the next layer's projection
        layer_caches.append((x_seq, gates, cells_act, cells, hidden))
        x_seq = hidden[1:]

    h_top = x_seq[-1]  # (B, H_last)
    rate = config.dropout_rate if training_mode else 0.0
    keep, h_drop = None, h_top
    if rate > 0.0:
        drop_rng = np.random.Generator(np.random.PCG64(dropout_seed))
        keep = (drop_rng.random(h_top.shape) >= rate).astype(dt)
        h_drop = h_top * keep / (1.0 - rate)
    predictions = _dense_head(params, h_drop)
    cache = {
        "layers": layer_caches,
        "h_drop": h_drop,
        "keep": keep,
        "rate": rate,
        "predictions": predictions,
    }
    return predictions, cache


def _predict_windows(
    params: NetworkParameters, config: NetworkConfig, inputs: np.ndarray
) -> np.ndarray:
    """Inference-mode :func:`forward_batch` predictions, byte for byte, with
    no cache: a layer keeps its (B, H) state and its (p, B, H) outputs."""
    _check_window_shapes(params, config, inputs)
    b, p, _ = inputs.shape
    dt = params.dense_w.dtype
    x_seq = inputs.transpose(1, 0, 2)  # (p, B, D)
    for layer in params.layers:
        gates = np.empty((4, b, layer.hidden), dt)
        c = np.zeros((b, layer.hidden), dt)
        c_act = np.empty_like(c)
        out = np.zeros((p + 1, b, layer.hidden), dt)  # row 0: the initial state
        for t in range(p):
            # Row t of forward_batch's stacked projection, bias added the same way.
            pre = x_seq[t] @ layer.w_in.T
            pre += layer.bias
            pre += out[t] @ layer.w_rec.T
            _cell_step(pre, gates, c, c, c_act, out[t + 1], _inference_sigmoid)
        x_seq = out[1:]
    return _dense_head(params, x_seq[-1])


def loss_mse(predictions: np.ndarray, labels: np.ndarray) -> float:
    predictions = np.asarray(predictions, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if predictions.shape != labels.shape:
        raise ValueError("predictions and labels must have equal length")
    if predictions.size == 0:
        raise ValueError("loss_mse needs at least one sample")
    diff = predictions - labels
    return float(np.mean(diff * diff))


def backward(
    params: NetworkParameters, cache: dict, labels: np.ndarray
) -> NetworkParameters:
    """Gradients of the batch-mean squared error w.r.t. every parameter, in
    the parameters' dtype."""
    dt = params.dense_w.dtype
    labels = np.asarray(labels, dtype=dt)
    b = cache["predictions"].shape[0]
    if labels.shape != (b,):
        raise ValueError(f"labels must have shape ({b},)")

    d_pred = 2.0 * (cache["predictions"] - labels) / b  # (B,)
    grads = params.zeros_like()
    grads.dense_w[...] = cache["h_drop"].T @ d_pred
    grads.dense_b[0] = d_pred.sum()
    dh_top = d_pred[:, None] * params.dense_w[None, :]
    if cache["rate"] > 0.0:
        dh_top = dh_top * cache["keep"] / (1.0 - cache["rate"])

    # The top layer's output is read at the final step only; lower layers
    # receive the full back-propagated sequence from the layer above.
    p = cache["layers"][0][0].shape[0]  # steps of the (p, B, D) input
    dh_seq = np.zeros((p, *dh_top.shape), dt)
    dh_seq[-1] = dh_top
    for layer, grad, (x_seq, gates, cells_act, cells, hidden) in zip(
        reversed(params.layers), reversed(grads.layers), reversed(cache["layers"])
    ):
        h_dim = layer.hidden
        i, f, g, o = gates.transpose(1, 0, 2, 3)
        # Every step's factors at once; step t forms the gate gradients as
        # dc * fac[t, :3] and dh * fac[t, 3], with dc = dh * dc_dh[t] + dc_carry.
        fac = np.empty_like(gates)
        np.multiply(g * i, 1.0 - i, out=fac[:, 0])
        np.multiply(cells[:-1] * f, 1.0 - f, out=fac[:, 1])
        np.multiply(i, _relu_grad(g), out=fac[:, 2])
        np.multiply(cells_act * o, 1.0 - o, out=fac[:, 3])
        dc_dh = o * _relu_grad(cells_act)
        # The bottom layer's input is the data, which takes no gradient.
        dx_seq = None if layer is params.layers[0] else np.zeros_like(x_seq)
        dh_rec = np.zeros((b, h_dim), dt)
        dc_carry = np.zeros((b, h_dim), dt)
        da = np.empty((b, 4 * h_dim), dt)
        da_gates = da.reshape(b, 4, h_dim).transpose(1, 0, 2)  # gate-major view
        for t in range(p - 1, -1, -1):
            dh = dh_seq[t] + dh_rec
            dc = dh * dc_dh[t]
            dc += dc_carry
            np.multiply(dc, fac[t, :3], out=da_gates[:3])
            np.multiply(dh, fac[t, 3], out=da_gates[3])
            grad.w_in += da.T @ x_seq[t]
            grad.w_rec += da.T @ hidden[t]
            grad.bias += da.sum(axis=0)
            if dx_seq is not None:
                np.matmul(da, layer.w_in, out=dx_seq[t])
            dh_rec = da @ layer.w_rec
            np.multiply(dc, f[t], out=dc_carry)
        dh_seq = dx_seq
    return grads


def adam_step(
    params: NetworkParameters, grads: NetworkParameters, state: AdamState
) -> None:
    """One bias-corrected Adam update, in place: advances ``state.t`` and
    updates ``params``, ``state.m`` and ``state.v``. Its scalars are Python
    floats, so the arrays keep their dtype."""
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1**state.t
    bc2 = 1.0 - ADAM_BETA2**state.t
    for p_leaf, g_leaf, m_leaf, v_leaf in zip(
        params.leaves(), grads.leaves(), state.m.leaves(), state.v.leaves()
    ):
        m_leaf[...] = ADAM_BETA1 * m_leaf + (1.0 - ADAM_BETA1) * g_leaf
        v_leaf[...] = ADAM_BETA2 * v_leaf + (1.0 - ADAM_BETA2) * g_leaf * g_leaf
        m_hat = m_leaf / bc1
        v_hat = v_leaf / bc2
        p_leaf -= state.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def train_epochs(
    samples: tuple[np.ndarray, np.ndarray],
    net: NetworkConfig,
    tc: TrainingConfig,
) -> Iterator[tuple[NetworkParameters, float]]:
    """Mini-batch Adam training on (inputs (B, p, F), labels (B,)) windows;
    yields a copy of the parameters, which Adam updates in place, and the
    mean MSE after each epoch.

    Fully deterministic given (net.seed, tc.seed): the shuffle order and
    each batch's dropout mask are drawn from one seeded stream. Training runs
    in float32, cast here once: the parameters, windows and labels.
    """
    inputs, labels = (np.asarray(a, dtype=np.float32) for a in samples)
    if inputs.shape[0] == 0:
        raise ValueError("training needs at least one sample")
    n = inputs.shape[0]
    params = init_params(net).map(lambda a: a.astype(np.float32))
    state = AdamState.init(params, lr=tc.learning_rate)
    rng = np.random.Generator(np.random.PCG64(tc.seed))
    for epoch in range(tc.epochs):
        state.lr = float(tc.learning_rate * tc.lr_decay**epoch)
        order = rng.permutation(n)
        total = 0.0
        # A diverging step overflows; the finiteness checks report it.
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, n, tc.batch_size):
                idx = order[start : start + tc.batch_size]
                dropout_seed = int(rng.integers(0, 2**63 - 1))
                try:
                    preds, cache = forward_batch(
                        params,
                        net,
                        inputs[idx],
                        training_mode=True,
                        dropout_seed=dropout_seed,
                    )
                except DivergenceError as exc:
                    raise DivergenceError(
                        f"training diverged at epoch {epoch}: {exc}"
                    ) from None
                batch_loss = loss_mse(preds, labels[idx])
                if not math.isfinite(batch_loss):
                    raise DivergenceError(f"training diverged at epoch {epoch}")
                total += batch_loss * idx.size
                grads = backward(params, cache, labels[idx])
                adam_step(params, grads, state)
        yield params.copy(), total / n


def train(
    samples: tuple[np.ndarray, np.ndarray],
    net: NetworkConfig,
    tc: TrainingConfig,
) -> tuple[NetworkParameters, list[float]]:
    """Run :func:`train_epochs` to the end; returns the final parameters
    and the per-epoch mean MSE."""
    loss_history: list[float] = []
    for params, mse in train_epochs(samples, net, tc):
        loss_history.append(mse)
    return params, loss_history


def predict_series(
    params: NetworkParameters,
    config: NetworkConfig,
    ds: TimeSeriesDataset,
    spec: WindowSpec,
    normalizer: NormalizationParams,
    mask: DarkHourMask | None = None,
) -> TimeSeriesDataset:
    """Backtest-style forecast over every target hour the dataset covers.

    The windows are training's (:func:`~pvdispatch.data.window_arrays`),
    normalized chunk by chunk and run in the parameters' dtype. Each
    prediction uses the window ending ``horizon_m`` hours earlier, is
    rescaled to MW in float64 and clipped at 0. With a mask, only windows
    whose target slot it leaves lit run through the network; every dark
    slot is exactly 0 MW.
    """
    inputs, _labels = window_arrays(ds, spec)
    n_samples = inputs.shape[0]
    targets = ds.timestamps[-n_samples:]
    lit = np.arange(n_samples)
    if mask is not None:
        lit = np.flatnonzero(~dark_slots(targets, mask))
    mw = np.zeros((n_samples, 1))
    for start in range(0, lit.size, PREDICT_CHUNK):
        rows = lit[start : start + PREDICT_CHUNK]
        chunk = normalize(inputs[rows], normalizer)
        block = np.ascontiguousarray(chunk, dtype=params.dense_w.dtype)
        mw[rows, 0] = _predict_windows(params, config, block)
    j = spec.target_feature_j
    mw[lit, 0] = np.maximum(denormalize_feature(mw[lit, 0], normalizer, j), 0.0)
    return TimeSeriesDataset(targets, mw, (ds.feature_names[j],))
