"""Two-layer recurrent forecaster trained from scratch with numpy.

Cell equations per timestep and layer, gate order (i, f, g, o):

    i = sigmoid(W_i x + U_i h_prev + b_i)      input gate
    f = sigmoid(W_f x + U_f h_prev + b_f)      forget gate
    g = act(W_g x + U_g h_prev + b_g)          candidate
    o = sigmoid(W_o x + U_o h_prev + b_o)      output gate
    c = f * c_prev + i * g
    h = o * act(c)

``act`` is the configured cell activation (rectifier by default, replacing
the usual tanh in both the candidate transform and the cell-output
transform); the three gates stay logistic. The first layer feeds its full
hidden sequence to the second; only the final hidden state of the top layer
passes through inverted dropout (training mode only) and a linear head.

Training is plain backpropagation through time with Adam updates on the
batch-mean squared error. Everything runs in float64 so analytic gradients
can be checked against central finite differences.
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
    apply_dark_mask,
    denormalize_feature,
    normalize,
    window_arrays,
)


class DivergenceError(RuntimeError):
    """A forward pass or training run produced a non-finite value."""


def sigmoid(x: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(x))  # never overflows: 1/(1+e) at x >= 0, e/(1+e) below
    # e <= 1, so min(e + 1, 1) is exactly 1 at x >= 0; no branch per element.
    return np.minimum(e + (x >= 0), 1.0) / (1.0 + e)


# The inference pass calls the gate sigmoid through this name, bound once at
# import, so a profiler that wraps ``lstm.sigmoid`` times (and slows) only
# the gate calls of forward_batch, not every step of every forecast chunk.
_inference_sigmoid = sigmoid


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


# (activation, derivative expressed in terms of the activation output)
_ACTIVATIONS = {
    "relu": (relu, lambda y: (y > 0).astype(float)),
    "tanh": (np.tanh, lambda y: 1.0 - y * y),
}


@dataclass(frozen=True)
class NetworkConfig:
    """Architecture hyperparameters for the stacked recurrent forecaster."""

    input_features: int
    layer_sizes: tuple[int, ...] = (64, 32)
    dropout_rate: float = 0.2
    cell_activation: str = "relu"
    seed: int = 0

    def __post_init__(self) -> None:
        sizes = tuple(int(h) for h in self.layer_sizes)
        object.__setattr__(self, "layer_sizes", sizes)
        if self.input_features < 1:
            raise ValueError("input_features must be >= 1")
        if not sizes or any(h < 1 for h in sizes):
            raise ValueError("layer_sizes must be non-empty, all >= 1")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must be in [0, 1)")
        if self.cell_activation not in _ACTIVATIONS:
            raise ValueError(
                f"unknown cell_activation {self.cell_activation!r}; "
                f"choose from {sorted(_ACTIVATIONS)}"
            )


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
# Windows per inference pass in predict_series. Predictions depend on the GEMM
# batch size through BLAS: 64- or 128-window chunks move some by 1 ulp against
# 256, which is why the chunk stays at 256.
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
    shuffle: bool = True
    # Per-epoch multiplicative step-size decay; 1.0 keeps plain Adam.
    lr_decay: float = 1.0

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError(
                f"learning_rate: {self.learning_rate} must be finite and > 0"
            )
        if not 0.0 < self.lr_decay <= 1.0:
            raise ValueError("lr_decay must be in (0, 1]")


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
    act: Callable,
    squash: Callable,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cell equations for one step: fill the gate-major (4, B, H) block
    ``gates`` from the (B, 4H) pre-activation, with ``squash`` the gate
    sigmoid; return c, act(c) and h."""
    b, h_dim = c_prev.shape
    gates[...] = squash(pre).reshape(b, 4, h_dim).transpose(1, 0, 2)
    gates[2] = act(pre[:, 2 * h_dim : 3 * h_dim])
    c = gates[1] * c_prev + gates[0] * gates[2]
    c_act = act(c)
    return c, c_act, gates[3] * c_act


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
    (4, p, B, H) in (i, f, g, o) order, ``act(c)`` (p, B, H), and the cell
    and hidden states (p + 1, B, H), whose row 0 is the zero initial state.
    The input projection of all p steps is one stacked matmul; each step
    then applies ``sigmoid`` once to its (B, 4H) block and ``act`` to g.
    """
    inputs = np.asarray(inputs, dtype=float)
    _check_window_shapes(params, config, inputs)
    b, p, _ = inputs.shape
    act, _ = _ACTIVATIONS[config.cell_activation]

    layer_caches = []
    x_seq = inputs.transpose(1, 0, 2)  # (p, B, D)
    for layer in params.layers:
        h_dim = layer.hidden
        gates = np.empty((4, p, b, h_dim))
        cells_act = np.empty((p, b, h_dim))
        cells = np.zeros((p + 1, b, h_dim))
        hidden = np.zeros((p + 1, b, h_dim))
        x_proj = x_seq @ layer.w_in.T  # (p, B, 4H)
        w_rec_t = layer.w_rec.T
        for t in range(p):
            pre = x_proj[t] + hidden[t] @ w_rec_t + layer.bias
            cells[t + 1], cells_act[t], hidden[t + 1] = _cell_step(
                pre, gates[:, t], cells[t], act, sigmoid
            )
        del x_proj  # free it before the next layer's projection
        layer_caches.append((x_seq, gates, cells_act, cells, hidden))
        x_seq = hidden[1:]

    h_top = x_seq[-1]  # (B, H_last)
    rate = config.dropout_rate
    if training_mode and rate > 0.0:
        drop_rng = np.random.Generator(np.random.PCG64(dropout_seed))
        keep = (drop_rng.random(h_top.shape) >= rate).astype(float)
        h_drop = h_top * keep / (1.0 - rate)
    else:
        keep = None
        h_drop = h_top
    predictions = _dense_head(params, h_drop)
    cache = {
        "layers": layer_caches,
        "h_drop": h_drop,
        "keep": keep,
        "rate": rate if (training_mode and rate > 0.0) else 0.0,
        "predictions": predictions,
        "activation": config.cell_activation,
    }
    return predictions, cache


def _predict_windows(
    params: NetworkParameters, config: NetworkConfig, inputs: np.ndarray
) -> np.ndarray:
    """Inference-mode :func:`forward_batch` predictions, byte for byte, with
    no cache: a layer keeps its (B, H) state and its (p, B, H) outputs."""
    _check_window_shapes(params, config, inputs)
    b, p, _ = inputs.shape
    act, _ = _ACTIVATIONS[config.cell_activation]
    x_seq = inputs.transpose(1, 0, 2)  # (p, B, D)
    for layer in params.layers:
        gates = np.empty((4, b, layer.hidden))
        c = np.zeros((b, layer.hidden))
        out = np.zeros((p + 1, b, layer.hidden))  # row 0: the initial state
        for t in range(p):
            # x_seq[t] @ W_in.T is the GEMM the stacked projection runs for t.
            pre = x_seq[t] @ layer.w_in.T + out[t] @ layer.w_rec.T + layer.bias
            c, _, out[t + 1] = _cell_step(pre, gates, c, act, _inference_sigmoid)
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
    """Gradients of the batch-mean squared error w.r.t. every parameter."""
    labels = np.asarray(labels, dtype=float)
    b = cache["predictions"].shape[0]
    if labels.shape != (b,):
        raise ValueError(f"labels must have shape ({b},)")
    _, dact = _ACTIVATIONS[cache["activation"]]

    d_pred = 2.0 * (cache["predictions"] - labels) / b  # (B,)
    grads = params.zeros_like()
    grads.dense_w[...] = cache["h_drop"].T @ d_pred
    grads.dense_b[0] = d_pred.sum()
    dh_drop = d_pred[:, None] * params.dense_w[None, :]
    if cache["rate"] > 0.0:
        dh_top = dh_drop * cache["keep"] / (1.0 - cache["rate"])
    else:
        dh_top = dh_drop

    # The top layer's output is read at the final step only; lower layers
    # receive the full back-propagated sequence from the layer above.
    p = cache["layers"][0][0].shape[0]  # steps of the (p, B, D) input
    dh_seq = np.zeros((p, *dh_top.shape))
    dh_seq[-1] = dh_top
    for layer, grad, (x_seq, gates, cells_act, cells, hidden) in zip(
        reversed(params.layers), reversed(grads.layers), reversed(cache["layers"])
    ):
        h_dim = layer.hidden
        dx_seq = np.zeros_like(x_seq)
        dh_rec = np.zeros((b, h_dim))
        dc_carry = np.zeros((b, h_dim))
        da = np.empty((b, 4 * h_dim))
        for t in range(p - 1, -1, -1):
            dh = dh_seq[t] + dh_rec
            i_t, f_t, g_t, o_t = gates[0, t], gates[1, t], gates[2, t], gates[3, t]
            r_t = cells_act[t]
            dc = dh * o_t * dact(r_t) + dc_carry
            da[:, :h_dim] = dc * g_t * i_t * (1.0 - i_t)
            da[:, h_dim : 2 * h_dim] = dc * cells[t] * f_t * (1.0 - f_t)
            da[:, 2 * h_dim : 3 * h_dim] = dc * i_t * dact(g_t)
            da[:, 3 * h_dim :] = dh * r_t * o_t * (1.0 - o_t)
            grad.w_in += da.T @ x_seq[t]
            grad.w_rec += da.T @ hidden[t]
            grad.bias += da.sum(axis=0)
            dx_seq[t] = da @ layer.w_in
            dh_rec = da @ layer.w_rec
            dc_carry = dc * f_t
        dh_seq = dx_seq
    return grads


def adam_step(
    params: NetworkParameters, grads: NetworkParameters, state: AdamState
) -> None:
    """One bias-corrected Adam update, in place: advances ``state.t`` and
    updates ``params``, ``state.m`` and ``state.v``."""
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
    each batch's dropout mask are drawn from one seeded stream.
    """
    inputs, labels = (np.asarray(a, dtype=float) for a in samples)
    if inputs.shape[0] == 0:
        raise ValueError("training needs at least one sample")
    n = inputs.shape[0]
    params = init_params(net)
    state = AdamState.init(params, lr=tc.learning_rate)
    rng = np.random.Generator(np.random.PCG64(tc.seed))
    for epoch in range(tc.epochs):
        state.lr = tc.learning_rate * tc.lr_decay**epoch
        order = rng.permutation(n) if tc.shuffle else np.arange(n)
        total = 0.0
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
    normalized chunk by chunk. Each prediction uses the window ending
    ``horizon_m`` hours earlier, is rescaled to MW, clipped at 0, and
    finally forced to zero on dark slots.
    """
    inputs, _labels = window_arrays(ds, spec)
    n_samples = inputs.shape[0]
    preds = np.empty(n_samples)
    for start in range(0, n_samples, PREDICT_CHUNK):
        chunk = normalize(inputs[start : start + PREDICT_CHUNK], normalizer)
        block = np.ascontiguousarray(chunk)
        preds[start : start + PREDICT_CHUNK] = _predict_windows(params, config, block)
    mw = denormalize_feature(preds, normalizer, spec.target_feature_j)
    mw = np.maximum(mw, 0.0)
    series = TimeSeriesDataset(
        ds.timestamps[-n_samples:],
        mw[:, None],
        (ds.feature_names[spec.target_feature_j],),
    )
    if mask is not None:
        series = apply_dark_mask(series, mask)
    return series
