"""Independent reference computations used to verify the solvers.

The vertex enumerator solves small box-bounded LPs by brute force: every
choice of n active constraints (equality rows always included, then
inequality rows and bound facets) yields a candidate basic point; feasible
candidates are collected and the best objective wins. It shares no code
with the simplex path it audits.

The reference builders assemble the day-ahead and real-time programs one
(unit, hour) entry at a time, the plain reading of the formulation in
:mod:`pvdispatch.dispatch`, so the vectorised builders can be checked
against them byte for byte.

The reference recurrent passes keep one array per gate and state, with
explicit step-0 and top-layer branches, project each step's input inside
the recurrence, apply the tanh-form logistic to each gate on its own and
form each gate gradient step by step, so the stacked gate cache, hoisted
projection, whole-block in-place ``sigmoid`` and per-layer gate factors of
:func:`pvdispatch.lstm.forward_batch` and :func:`pvdispatch.lstm.backward`
can be checked against them byte for byte. They share the arithmetic order
of those functions: ``(x W_in + b) + h U`` for a pre-activation, and each
gate gradient as ``dc`` (or ``dh``) times one product of cached values. The
masked logistic is the plain reading of the gate function, against which
``sigmoid``'s accuracy is checked.

The reference Adam step is :func:`pvdispatch.lstm.adam_step` as it stood
when it copied the parameters and both moments on every call, kept
verbatim, so the in-place update can be checked against it byte for byte.

The reference simplex is :func:`pvdispatch.lp.solve_lp` before its
set-up copies and per-pivot overhead were cut, kept verbatim, so the tuned
solver can be checked against it byte for byte.

The parameter vector helpers flatten a network's arrays into one vector
and back, so gradient checks can perturb one weight at a time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from pvdispatch.dispatch import DaSolution, DispatchCase, GeneratorSpec
from pvdispatch.lp import (
    IterationLimitError,
    LinearProgram,
    LpError,
    LpSolution,
    LpStatus,
)
from pvdispatch.lstm import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AdamState,
    NetworkConfig,
    NetworkParameters,
)


def enumerate_vertices(lp: LinearProgram, feas_tol: float = 1e-7):
    """All feasible basic points of a box-bounded LP.

    Returns (status, best_objective, best_x) where status is "optimal" or
    "infeasible". Requires finite bounds on every variable so the feasible
    set, if nonempty, is a polytope with at least one vertex.

    A candidate may break a bound or a row by up to ``feas_tol``. On an LP
    with coefficients near ``feas_tol`` or below (an equality row with a
    1e-6 entry, say), such a point can beat the true optimum by a wide
    margin, so this oracle cannot audit those programs; compare them with
    an independent solver such as HiGHS instead.
    """
    n = lp.n_vars
    if not (np.isfinite(lp.lower).all() and np.isfinite(lp.upper).all()):
        raise ValueError("vertex enumeration needs finite bounds")
    rows: list[tuple[np.ndarray, float]] = []
    for i in range(lp.A_ub.shape[0]):
        rows.append((lp.A_ub[i], float(lp.b_ub[i])))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        rows.append((e, float(lp.lower[j])))
        rows.append((e, float(lp.upper[j])))
    n_eq = lp.A_eq.shape[0]
    need = n - n_eq
    best_obj = None
    best_x = None
    if need < 0:
        choices = [()]  # overdetermined equalities; try them alone
    else:
        choices = itertools.combinations(range(len(rows)), need)
    for combo in choices:
        mats = [lp.A_eq] if n_eq else []
        rhs = [lp.b_eq] if n_eq else []
        for k in combo:
            mats.append(rows[k][0][None, :])
            rhs.append(np.array([rows[k][1]]))
        a = np.vstack(mats) if mats else np.zeros((0, n))
        b = np.concatenate(rhs) if rhs else np.zeros(0)
        if a.shape[0] != n:
            continue
        try:
            x = np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            continue
        if not np.isfinite(x).all():
            continue
        if (x < lp.lower - feas_tol).any() or (x > lp.upper + feas_tol).any():
            continue
        if lp.A_eq.shape[0] and np.abs(lp.A_eq @ x - lp.b_eq).max() > feas_tol:
            continue
        if lp.A_ub.shape[0] and (lp.A_ub @ x - lp.b_ub).max() > feas_tol:
            continue
        obj = float(lp.c @ x)
        if best_obj is None or obj < best_obj:
            best_obj, best_x = obj, x
    if best_obj is None:
        return "infeasible", None, None
    return "optimal", best_obj, best_x


def random_box_lp(rng: np.random.Generator, max_vars: int = 6) -> LinearProgram:
    """A random LP with finite box bounds; roughly half the rows pass
    through a random interior point so many instances are feasible."""
    n = int(rng.integers(2, max_vars + 1))
    lo = rng.uniform(-3.0, 0.0, n)
    up = lo + rng.uniform(0.5, 4.0, n)
    c = rng.uniform(-2.0, 2.0, n)
    x0 = rng.uniform(lo, up)
    n_ub = int(rng.integers(0, 4))
    n_eq = int(rng.integers(0, 3))
    a_ub = rng.uniform(-1.0, 1.0, (n_ub, n)) if n_ub else None
    b_ub = a_ub @ x0 + rng.uniform(-0.5, 1.5, n_ub) if n_ub else None
    a_eq = rng.uniform(-1.0, 1.0, (n_eq, n)) if n_eq else None
    b_eq = None
    if n_eq:
        b_eq = a_eq @ x0
        if rng.random() < 0.3:
            b_eq = b_eq + rng.uniform(-0.4, 0.4, n_eq)
    return LinearProgram(
        c=c, A_eq=a_eq, b_eq=b_eq, A_ub=a_ub, b_ub=b_ub, lower=lo, upper=up
    )


def merit_order_cost(demand: float, fleet) -> tuple[float, list[float]]:
    """Single-hour least-cost schedule by filling cheapest units first."""
    remaining = demand
    schedule = []
    total = 0.0
    for gen in sorted(fleet, key=lambda g: g.cost):
        take = min(gen.pmax, remaining)
        remaining -= take
        total += take * gen.cost
        schedule.append((gen.name, take))
    by_name = {name: mw for name, mw in schedule}
    ordered = [by_name[g.name] for g in fleet]
    return total, ordered


def random_benign_case(
    rng: np.random.Generator, horizon: int = 24
) -> DispatchCase:
    """A dispatch case whose day-ahead solution absorbs the full forecast.

    Demand stays well inside fleet capability with hour-to-hour moves far
    below the aggregate ramp, renewables stay below demand, and every unit
    has a strictly positive cost, so holding the day-ahead schedule is the
    unique real-time optimum when actuals match the forecast.
    """
    n_gen = int(rng.integers(2, 5))
    fleet = []
    rt_flags = rng.random(n_gen) < 0.5
    rt_flags[int(rng.integers(n_gen))] = True
    for i in range(n_gen):
        pmax = float(rng.uniform(25.0, 60.0))
        fleet.append(
            GeneratorSpec(
                name=f"U{i + 1}",
                cost=float(rng.uniform(5.0, 40.0)),
                pmax=pmax,
                pmin=0.0,
                ramp=float(rng.uniform(0.6, 1.0) * pmax),
                rt_available=bool(rt_flags[i]),
                gas_fired=bool(rng.random() < 0.5),
            )
        )
    cap = sum(g.pmax for g in fleet)
    t = np.arange(horizon)
    base = rng.uniform(0.35, 0.6) * cap
    swing = rng.uniform(0.05, 0.12) * cap
    phase = rng.uniform(0.0, 2.0 * np.pi)
    demand = base + swing * np.sin(2.0 * np.pi * t / horizon + phase)
    peak = rng.uniform(0.2, 0.45) * demand.min()
    pv = np.clip(np.sin(np.pi * (t - 6.0) / 12.0), 0.0, None) * peak
    return DispatchCase(
        demand=demand,
        forecast=pv,
        actual=pv.copy(),
        fleet=tuple(fleet),
        voll=1000.0 + float(rng.uniform(0.0, 500.0)),
        emission_factor=202.0,
    )


def random_dispatch_case(
    rng: np.random.Generator, horizon: int = 24
) -> DispatchCase:
    """A realistic dispatch case that exercises every part of both programs.

    Some units have ``pmin > 0`` and some cannot move in real time; the
    forecast errs in both signs around the actual renewable output, whose
    midday peak can exceed the demand left after the fleet's total pmin
    (a surplus to curtail or spill); demand can also exceed the fleet's
    capacity, so load may be shed.
    """
    n_gen = int(rng.integers(2, 5))
    rt_flags = rng.random(n_gen) < 0.5
    flexible, frozen = rng.choice(n_gen, size=2, replace=False)
    rt_flags[flexible], rt_flags[frozen] = True, False
    fleet = []
    for i in range(n_gen):
        pmax = float(rng.uniform(20.0, 60.0))
        pmin = float(rng.uniform(0.05, 0.4) * pmax) if rng.random() < 0.6 else 0.0
        fleet.append(
            GeneratorSpec(
                name=f"U{i + 1}",
                cost=float(rng.uniform(5.0, 40.0)),
                pmax=pmax,
                pmin=pmin,
                ramp=float(rng.uniform(0.2, 1.0) * pmax),
                rt_available=bool(rt_flags[i]),
                gas_fired=bool(rng.random() < 0.5),
            )
        )
    cap = sum(g.pmax for g in fleet)
    pmin_total = sum(g.pmin for g in fleet)
    t = np.arange(horizon)
    base = rng.uniform(0.4, 0.95) * cap
    swing = rng.uniform(0.05, 0.2) * cap
    phase = rng.uniform(0.0, 2.0 * np.pi)
    demand = base + swing * np.sin(2.0 * np.pi * t / horizon + phase)
    demand = np.maximum(demand, pmin_total + rng.uniform(0.0, 5.0))
    peak = rng.uniform(0.2, 1.2) * demand.mean()
    actual = np.clip(np.sin(np.pi * (t - 6.0) / 12.0), 0.0, None) * peak
    error = rng.uniform(0.7, 1.3) * (1.0 + rng.normal(0.0, 0.2, horizon))
    forecast = np.clip(actual * error, 0.0, None)
    return DispatchCase(
        demand=demand,
        forecast=forecast,
        actual=actual,
        fleet=tuple(fleet),
        voll=1000.0 + float(rng.uniform(0.0, 500.0)),
        emission_factor=202.0,
    )


def reference_da_lp(case: DispatchCase) -> LinearProgram:
    """The day-ahead program, entry by entry: p[v,t], then rnw[t], ls[t]."""
    t_n = case.horizon
    v_n = len(case.fleet)
    n = v_n * t_n + 2 * t_n

    def p_col(v: int, t: int) -> int:
        return v * t_n + t

    rnw0 = v_n * t_n
    ls0 = rnw0 + t_n

    c = np.zeros(n)
    lower = np.zeros(n)
    upper = np.empty(n)
    for v, gen in enumerate(case.fleet):
        for t in range(t_n):
            c[p_col(v, t)] = gen.cost
            lower[p_col(v, t)] = gen.pmin
            upper[p_col(v, t)] = gen.pmax
    for t in range(t_n):
        upper[rnw0 + t] = case.forecast[t]
        upper[ls0 + t] = case.demand[t]
        c[ls0 + t] = case.voll

    a_eq = np.zeros((t_n, n))
    for t in range(t_n):
        for v in range(v_n):
            a_eq[t, p_col(v, t)] = 1.0
        a_eq[t, rnw0 + t] = 1.0
        a_eq[t, ls0 + t] = 1.0
    b_eq = case.demand.copy()

    a_ub = np.zeros((2 * v_n * t_n, n))
    b_ub = np.empty(2 * v_n * t_n)
    row = 0
    for v, gen in enumerate(case.fleet):
        for t in range(t_n):
            prev = (t - 1) % t_n
            a_ub[row, p_col(v, t)] += 1.0
            a_ub[row, p_col(v, prev)] -= 1.0
            b_ub[row] = gen.ramp
            a_ub[row + 1, p_col(v, t)] -= 1.0
            a_ub[row + 1, p_col(v, prev)] += 1.0
            b_ub[row + 1] = gen.ramp
            row += 2

    return LinearProgram(
        c=c, A_eq=a_eq, b_eq=b_eq, A_ub=a_ub, b_ub=b_ub, lower=lower, upper=upper
    )


def reference_rt_lp(case: DispatchCase, da: DaSolution) -> LinearProgram:
    """The real-time program, entry by entry: d[v,t] for the flexible
    units, then spill[t], ls_rt[t]."""
    t_n = case.horizon
    flex = [v for v, g in enumerate(case.fleet) if g.rt_available]
    f_n = len(flex)
    n = f_n * t_n + 2 * t_n

    def d_col(fi: int, t: int) -> int:
        return fi * t_n + t

    spill0 = f_n * t_n
    ls0 = spill0 + t_n

    c = np.zeros(n)
    lower = np.empty(n)
    upper = np.empty(n)
    for fi, v in enumerate(flex):
        gen = case.fleet[v]
        for t in range(t_n):
            c[d_col(fi, t)] = gen.cost
            lower[d_col(fi, t)] = gen.pmin - da.p[v, t]
            upper[d_col(fi, t)] = gen.pmax - da.p[v, t]
    for t in range(t_n):
        lower[spill0 + t] = 0.0
        upper[spill0 + t] = case.actual[t]
        lower[ls0 + t] = -da.ls[t]
        upper[ls0 + t] = case.demand[t] - da.ls[t]
        c[ls0 + t] = case.voll

    a_eq = np.zeros((t_n, n))
    b_eq = np.empty(t_n)
    committed = da.p.sum(axis=0)
    for t in range(t_n):
        for fi in range(f_n):
            a_eq[t, d_col(fi, t)] = 1.0
        a_eq[t, spill0 + t] = -1.0
        a_eq[t, ls0 + t] = 1.0
        b_eq[t] = case.demand[t] - committed[t] - case.actual[t] - da.ls[t]

    a_ub = np.zeros((2 * f_n * t_n, n))
    b_ub = np.empty(2 * f_n * t_n)
    row = 0
    for fi, v in enumerate(flex):
        gen = case.fleet[v]
        for t in range(t_n):
            prev = (t - 1) % t_n
            base = da.p[v, t] - da.p[v, prev]
            a_ub[row, d_col(fi, t)] += 1.0
            a_ub[row, d_col(fi, prev)] -= 1.0
            b_ub[row] = gen.ramp - base
            a_ub[row + 1, d_col(fi, t)] -= 1.0
            a_ub[row + 1, d_col(fi, prev)] += 1.0
            b_ub[row + 1] = gen.ramp + base
            row += 2

    return LinearProgram(
        c=c, A_eq=a_eq, b_eq=b_eq, A_ub=a_ub, b_ub=b_ub, lower=lower, upper=upper
    )


def reference_sigmoid(x: np.ndarray) -> np.ndarray:
    """The logistic function through tanh, as one expression."""
    return 0.5 * np.tanh(0.5 * x) + 0.5


def masked_logistic(x: np.ndarray) -> np.ndarray:
    """The logistic function by boolean masks: ``1 / (1 + exp(-x))`` where
    x >= 0 and ``exp(x) / (1 + exp(x))`` elsewhere."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


_REFERENCE_ACTIVATIONS = {
    "relu": (lambda x: np.maximum(x, 0.0), lambda y: (y > 0).astype(y.dtype)),
    "tanh": (np.tanh, lambda y: 1.0 - y * y),
}


def to_vector(params: NetworkParameters) -> np.ndarray:
    """Every parameter array, flattened and joined in ``leaves()`` order."""
    return np.concatenate([leaf.ravel() for leaf in params.leaves()])


def from_vector(params: NetworkParameters, vec: np.ndarray) -> NetworkParameters:
    """Parameters shaped like ``params`` holding the entries of ``vec``."""
    out = params.zeros_like()
    offset = 0
    for leaf in out.leaves():
        n = leaf.size
        leaf[...] = vec[offset : offset + n].reshape(leaf.shape)
        offset += n
    if offset != vec.size:
        raise ValueError(f"vector has {vec.size} entries, need {offset}")
    return out


def reference_forward_batch(
    params: NetworkParameters,
    config: NetworkConfig,
    inputs: np.ndarray,
    training_mode: bool = False,
    dropout_seed: int = 0,
) -> tuple[np.ndarray, dict]:
    """Stacked cells over (B, p, F) windows, one named array per gate, in
    the parameters' dtype."""
    dt = params.dense_w.dtype
    inputs = np.asarray(inputs, dtype=dt)
    b, p, _ = inputs.shape
    act, _ = _REFERENCE_ACTIVATIONS[config.cell_activation]
    layer_caches = []
    x_seq = inputs.transpose(1, 0, 2)
    for layer in params.layers:
        h_dim = layer.hidden
        lc = {k: np.empty((p, b, h_dim), dt) for k in "ifgocrh"}
        h_prev = np.zeros((b, h_dim), dt)
        c_prev = np.zeros((b, h_dim), dt)
        for t in range(p):
            pre = x_seq[t] @ layer.w_in.T + layer.bias + h_prev @ layer.w_rec.T
            i_t = reference_sigmoid(pre[:, :h_dim])
            f_t = reference_sigmoid(pre[:, h_dim : 2 * h_dim])
            g_t = act(pre[:, 2 * h_dim : 3 * h_dim])
            o_t = reference_sigmoid(pre[:, 3 * h_dim :])
            c_t = f_t * c_prev + i_t * g_t
            r_t = act(c_t)
            h_t = o_t * r_t
            for k, v in zip("ifgocrh", (i_t, f_t, g_t, o_t, c_t, r_t, h_t)):
                lc[k][t] = v
            h_prev, c_prev = h_t, c_t
        lc["x"] = x_seq
        layer_caches.append(lc)
        x_seq = lc["h"]
    h_top = x_seq[-1]
    rate = config.dropout_rate if training_mode else 0.0
    keep = None
    h_drop = h_top
    if rate > 0.0:
        drop_rng = np.random.Generator(np.random.PCG64(dropout_seed))
        keep = (drop_rng.random(h_top.shape) >= rate).astype(dt)
        h_drop = h_top * keep / (1.0 - rate)
    predictions = h_drop @ params.dense_w + params.dense_b[0]
    cache = {
        "layers": layer_caches, "h_drop": h_drop, "keep": keep, "rate": rate,
        "predictions": predictions, "activation": config.cell_activation,
    }
    return predictions, cache


def reference_backward(
    params: NetworkParameters, cache: dict, labels: np.ndarray
) -> NetworkParameters:
    """Backpropagation through time over a reference cache, step by step,
    in the parameters' dtype."""
    dt = params.dense_w.dtype
    labels = np.asarray(labels, dtype=dt)
    _, dact = _REFERENCE_ACTIVATIONS[cache["activation"]]
    b = labels.shape[0]
    d_pred = 2.0 * (cache["predictions"] - labels) / b
    grads = params.zeros_like()
    grads.dense_w[...] = cache["h_drop"].T @ d_pred
    grads.dense_b[0] = d_pred.sum()
    dh_top = d_pred[:, None] * params.dense_w[None, :]
    if cache["rate"] > 0.0:
        dh_top = dh_top * cache["keep"] / (1.0 - cache["rate"])
    n_layers = len(params.layers)
    dh_seq = None
    for li in range(n_layers - 1, -1, -1):
        layer = params.layers[li]
        lc = cache["layers"][li]
        h_dim = layer.hidden
        p = lc["x"].shape[0]
        g = grads.layers[li]
        dx_seq = np.zeros_like(lc["x"])
        dh_rec = np.zeros((b, h_dim), dt)
        dc_carry = np.zeros((b, h_dim), dt)
        da = np.empty((b, 4 * h_dim), dt)
        for t in range(p - 1, -1, -1):
            if li == n_layers - 1:
                dh = dh_top + dh_rec if t == p - 1 else dh_rec
            else:
                dh = dh_seq[t] + dh_rec
            i_t, f_t, g_t, o_t = lc["i"][t], lc["f"][t], lc["g"][t], lc["o"][t]
            r_t = lc["r"][t]
            c_prev = lc["c"][t - 1] if t > 0 else np.zeros((b, h_dim), dt)
            h_prev = lc["h"][t - 1] if t > 0 else np.zeros((b, h_dim), dt)
            dc = dh * (o_t * dact(r_t)) + dc_carry
            da[:, :h_dim] = dc * (g_t * i_t * (1.0 - i_t))
            da[:, h_dim : 2 * h_dim] = dc * (c_prev * f_t * (1.0 - f_t))
            da[:, 2 * h_dim : 3 * h_dim] = dc * (i_t * dact(g_t))
            da[:, 3 * h_dim :] = dh * (r_t * o_t * (1.0 - o_t))
            g.w_in += da.T @ lc["x"][t]
            g.w_rec += da.T @ h_prev
            g.bias += da.sum(axis=0)
            dx_seq[t] = da @ layer.w_in
            dh_rec = da @ layer.w_rec
            dc_carry = dc * f_t
        dh_seq = dx_seq
    return grads


def reference_adam_step(
    params: NetworkParameters, grads: NetworkParameters, state: AdamState
) -> tuple[NetworkParameters, AdamState]:
    """One bias-corrected Adam update; returns fresh parameters and state."""
    t = state.t + 1
    new_params = params.copy()
    new_m = state.m.copy()
    new_v = state.v.copy()
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    for p_leaf, g_leaf, m_leaf, v_leaf in zip(
        new_params.leaves(), grads.leaves(), new_m.leaves(), new_v.leaves()
    ):
        m_leaf[...] = ADAM_BETA1 * m_leaf + (1.0 - ADAM_BETA1) * g_leaf
        v_leaf[...] = ADAM_BETA2 * v_leaf + (1.0 - ADAM_BETA2) * g_leaf * g_leaf
        m_hat = m_leaf / bc1
        v_hat = v_leaf / bc2
        p_leaf -= state.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return new_params, AdamState(new_m, new_v, t, state.lr)


# The two-phase simplex of :func:`pvdispatch.lp.solve_lp` as it stood before
# its per-solve copies and per-pivot overhead were cut: three dense copies
# of the standard form, full-length ratio arrays, an ``np.hstack`` between
# the phases and Python set-up loops. Kept verbatim, so the tuned solver can
# be checked against it byte for byte: same pivots, same iteration count,
# same ``x``.

_PIVOT_TOL = 1e-11
_TOL = 1e-9  # pricing, ratio-tie and degeneracy tolerance
_BLAND_STALL = 50


@dataclass
class _StandardForm:
    """min c.y, A y = b, y >= 0, where the first ``n_vars`` columns are
    ``y = x - lower`` and the rest are slacks."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    n_eq: int  # leading rows that are equalities (no slack of their own)


def _reference_standard_form(lp: LinearProgram) -> _StandardForm:
    n = lp.n_vars
    shifted = np.nonzero(lp.lower)[0]

    def shift_rhs(a_orig: np.ndarray, b_orig: np.ndarray) -> np.ndarray:
        b_new = b_orig.copy()
        # Shifted one column at a time, in column order, as the rounding of
        # b depends on the order of the subtractions.
        for j in shifted:
            b_new -= a_orig[:, j] * lp.lower[j]
        return b_new

    b_eq = shift_rhs(lp.A_eq, lp.b_eq)
    # A variable with a finite upper bound keeps y <= upper - lower as a row.
    boxed = np.nonzero(np.isfinite(lp.upper))[0]
    a_ub = np.vstack([lp.A_ub, np.eye(n)[boxed]])
    b_ub = np.concatenate(
        [shift_rhs(lp.A_ub, lp.b_ub), lp.upper[boxed] - lp.lower[boxed]]
    )

    n_ub = a_ub.shape[0]
    n_eq = lp.A_eq.shape[0]
    a = np.zeros((n_eq + n_ub, n + n_ub))
    a[:n_eq, :n] = lp.A_eq
    a[n_eq:, :n] = a_ub
    a[n_eq:, n:] = np.eye(n_ub)
    b = np.concatenate([b_eq, b_ub])

    c_new = np.zeros(n + n_ub)
    c_new[:n] = lp.c
    return _StandardForm(a, b, c_new, n_eq)


class _ReferenceSimplex:
    """Tableau state shared by the two phases."""

    def __init__(self, a: np.ndarray, b: np.ndarray, max_iters: int):
        # Rows are sign-fixed so every rhs is nonnegative.
        self.a = a.copy()
        self.b = b.copy()
        self.negated = self.b < 0
        self.a[self.negated] *= -1.0
        self.b[self.negated] *= -1.0
        self.max_iters = max_iters
        self.iterations = 0
        self.bland = False
        self._stall = 0

    def run(self, tableau: np.ndarray, basis: list[int]) -> str:
        """Pivot until optimal or unbounded. Returns "optimal"/"unbounded"."""
        while True:
            reduced = tableau[-1, :-1]
            if self.bland:
                negs = np.nonzero(reduced < -_TOL)[0]
                if negs.size == 0:
                    return "optimal"
                enter = int(negs[0])
            else:
                enter = int(np.argmin(reduced))
                if reduced[enter] >= -_TOL:
                    return "optimal"
            col = tableau[:-1, enter]
            rhs = tableau[:-1, -1]
            eligible = col > _PIVOT_TOL
            if not eligible.any():
                return "unbounded"
            ratios = np.where(eligible, rhs / np.where(eligible, col, 1.0), np.inf)
            best = ratios.min()
            # Tie-break on the smallest basis index (Bland-style) so the
            # pivot sequence is deterministic.
            tied = np.nonzero(ratios <= best + _TOL * (1.0 + best))[0]
            leave = int(min(tied, key=lambda r: basis[r]))
            if best <= _TOL:
                self._stall += 1
                if self._stall >= _BLAND_STALL:
                    self.bland = True
            else:
                self._stall = 0
            self._pivot(tableau, leave, enter)
            basis[leave] = enter
            self.iterations += 1
            if self.iterations > self.max_iters:
                raise IterationLimitError(
                    f"simplex exceeded {self.max_iters} iterations"
                )

    @staticmethod
    def _pivot(tableau: np.ndarray, row: int, col: int) -> None:
        tableau[row] /= tableau[row, col]
        factors = tableau[:, col].copy()
        factors[row] = 0.0
        rows = np.nonzero(factors)[0]
        tableau[rows] -= np.outer(factors[rows], tableau[row])
        tableau[:, col] = 0.0
        tableau[row, col] = 1.0


def reference_solve_lp(
    lp: LinearProgram, max_iters: int = 20000
) -> LpSolution:
    """Two-phase primal simplex.

    Optimal solutions satisfy the equality rows within ``_TOL``-scale
    residuals and the inequality rows and bounds up to the same order;
    exceeding ``max_iters`` raises :class:`IterationLimitError` instead of
    mislabeling the program.
    """
    sf = _reference_standard_form(lp)
    m, n_total = sf.a.shape
    engine = _ReferenceSimplex(sf.a, sf.b, max_iters)
    a, b = engine.a, engine.b

    # Phase 1: an inequality row whose slack kept its +1 sign starts with
    # that slack basic; equality rows and sign-flipped rows get artificials.
    basis: list[int] = []
    art_rows: list[int] = []
    for i in range(m):
        if i >= sf.n_eq and not engine.negated[i]:
            basis.append(lp.n_vars + (i - sf.n_eq))
        else:
            basis.append(-1)  # placeholder, artificial assigned below
            art_rows.append(i)
    n_art = len(art_rows)
    tableau = np.zeros((m + 1, n_total + n_art + 1))
    tableau[:m, :n_total] = a
    tableau[:m, -1] = b
    for k, i in enumerate(art_rows):
        tableau[i, n_total + k] = 1.0
        basis[i] = n_total + k

    if n_art:
        cost = np.zeros(n_total + n_art + 1)
        cost[n_total : n_total + n_art] = 1.0
        for i in art_rows:
            cost -= tableau[i]
        tableau[-1] = cost
        outcome = engine.run(tableau, basis)
        if outcome != "optimal":
            raise LpError("phase 1 reported unbounded; this cannot happen")
        phase1_obj = -tableau[-1, -1]
        if phase1_obj > max(1e-7, _TOL * 100.0):
            return LpSolution(LpStatus.INFEASIBLE, None, None, engine.iterations)
        # Drive surviving artificials out of the basis or drop their rows.
        keep_rows = np.ones(m, dtype=bool)
        for i in range(m):
            if basis[i] < n_total:
                continue
            # Pivot on the largest entry: a tiny one would scale the row
            # by its inverse and amplify roundoff across the tableau.
            magnitude = np.abs(tableau[i, :n_total])
            pivot_col = int(np.argmax(magnitude))
            if magnitude[pivot_col] > 1e-9:
                engine._pivot(tableau, i, pivot_col)
                basis[i] = pivot_col
            else:
                keep_rows[i] = False
        if not keep_rows.all():
            rows = np.concatenate([np.nonzero(keep_rows)[0], [m]])
            tableau = tableau[rows]
            basis = [basis[i] for i in np.nonzero(keep_rows)[0]]
            m = len(basis)
    tableau = np.hstack([tableau[:, :n_total], tableau[:, -1:]])

    # Phase 2 objective, reduced against the current basis.
    cost = np.zeros(n_total + 1)
    cost[:n_total] = sf.c
    for i in range(m):
        cj = sf.c[basis[i]]
        if cj != 0.0:
            cost -= cj * tableau[i]
    tableau[-1] = cost
    outcome = engine.run(tableau, basis)
    if outcome == "unbounded":
        return LpSolution(LpStatus.UNBOUNDED, None, None, engine.iterations)

    y = np.zeros(n_total)
    y[basis] = tableau[:m, -1]
    # Refine basic values against the untouched standard-form system to
    # shed accumulated pivot roundoff.
    if m == sf.a.shape[0]:
        try:
            basis_mat = sf.a[:, basis]
            refined = np.linalg.solve(basis_mat, sf.b)
            scale = 1.0 + np.abs(sf.b).max(initial=0.0)
            residual = np.abs(basis_mat @ refined - sf.b).max(initial=0.0)
            if (
                np.isfinite(refined).all()
                and refined.min(initial=0.0) > -1e-7
                and residual <= 1e-8 * scale
            ):
                y[:] = 0.0
                y[basis] = np.maximum(refined, 0.0)
        except np.linalg.LinAlgError:
            pass

    # A zero rhs divided by a negative drive-out pivot leaves a basic -0.0
    # when refinement is skipped, and a lower bound can be -0.0 (the real-time
    # shedding bound is -da.ls); y + 0.0 keeps such an x at +0.0.
    x = lp.lower + (y[: lp.n_vars] + 0.0)
    return LpSolution(
        LpStatus.OPTIMAL, x, float(lp.c @ x), engine.iterations
    )
