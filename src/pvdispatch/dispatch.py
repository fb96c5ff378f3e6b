"""Day-ahead and real-time economic dispatch.

The day-ahead program schedules generators, renewable usage, and load
shedding against the forecast renewable cap:

    min  sum_vt C_v p[v,t] + sum_t VOLL * ls[t]
    s.t. sum_v p[v,t] + rnw[t] + ls[t] = demand[t]        for every hour
         pmin_v <= p[v,t] <= pmax_v
         0 <= rnw[t] <= forecast[t]
         0 <= ls[t] <= demand[t]
         -R_v <= p[v,t] - p[v,t-1] <= R_v   (t = 0 wraps to the last hour)

The real-time program holds the day-ahead schedule fixed and lets only the
flexible units move by a signed adjustment, with actual renewable output
replacing the forecast; surplus can be spilled and shedding can be revised
in either direction (negative revisions earn VOLL credits):

    min  sum_vt C_v d[v,t] + sum_t VOLL * ls_rt[t]
    s.t. sum_v p*[v,t] + sum_{v in Vf} d[v,t] + actual[t] - spill[t]
             + ls*[t] + ls_rt[t] = demand[t]
         pmin_v <= p*[v,t] + d[v,t] <= pmax_v              (v in Vf)
         ramp limits on the combined schedule p* + d, cyclic at t = 0
         0 <= spill[t] <= actual[t]
         0 <= ls*[t] + ls_rt[t] <= demand[t]

One builder makes both programs: the real-time one is the market of the
flexible units around their day-ahead schedule, and the day-ahead one is
the market of every unit around a zero commitment. From day to day only
the bounds and right-hand sides move. So each market, fixed by its units,
horizon, renewable sign and VOLL, builds its costs, read-only matrices and
standard form once per process; a day writes only its vectors, and its
solve reuses the form's refine buffer, so two threads must not dispatch
at once.

Metric accounting: gas-fired energy is the combined output of gas-flagged
units, CO2 is the emission factor times that energy, cost is the sum of
both objectives, and NMAE is the mean absolute forecast error divided by
the mean actual.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .data import check_mw, read_csv_rows, write_table
from .lp import LinearProgram, LpSolution, LpStatus, StandardForm
from .lp import check_solution, solve_lp


class DispatchError(ValueError):
    """Invalid dispatch inputs."""


class DispatchInternalError(RuntimeError):
    """A dispatch LP failed in a way the formulation rules out."""


# The declared numeric range. The simplex's tolerances are absolute, so its
# answers hold only for figures of bounded size; these bounds sit 10x and
# 100x inside the smallest that disagreed with HiGHS in a sweep of fleets
# and days (about 1e6 MW of demand, and a voll 1e7 times the dearest cost).
MW_LIMIT = 1e5  # the largest series value or unit figure, in MW
VOLL_COST_RATIO = 1e5  # the largest voll, in multiples of the dearest cost


@dataclass(frozen=True)
class GeneratorSpec:
    """One conventional unit: marginal cost, output range, hourly ramp
    limit, real-time availability, and whether its fuel is gas."""

    name: str
    cost: float
    pmax: float
    pmin: float = 0.0
    ramp: float = 0.0
    rt_available: bool = False
    gas_fired: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise DispatchError("generator needs a name")
        for key in ("cost", "pmax", "pmin", "ramp"):
            if not math.isfinite(getattr(self, key)):
                raise DispatchError(f"{self.name}: {key} must be finite")
        for key in ("pmax", "ramp"):  # pmin is at most pmax, checked below
            if getattr(self, key) > MW_LIMIT:
                raise DispatchError(
                    f"{self.name}: {key} {getattr(self, key):g} MW is above "
                    f"the {MW_LIMIT:g} MW limit"
                )
        if not (0.0 <= self.pmin <= self.pmax):
            raise DispatchError(f"{self.name}: need 0 <= pmin <= pmax")
        if self.cost < 0:
            raise DispatchError(f"{self.name}: cost must be >= 0")
        if self.ramp <= 0:
            raise DispatchError(f"{self.name}: ramp must be > 0")


def default_fleet() -> tuple[GeneratorSpec, ...]:
    """Three-unit reference fleet; only the gas peaker can move in real time."""
    return (
        GeneratorSpec("G1", cost=20.0, pmax=50.0, pmin=0.0, ramp=20.0),
        GeneratorSpec("G2", cost=25.0, pmax=50.0, pmin=0.0, ramp=20.0),
        GeneratorSpec(
            "G3", cost=30.0, pmax=30.0, pmin=0.0, ramp=30.0,
            rt_available=True, gas_fired=True,
        ),
    )


def check_voll(voll: float, fleet: tuple[GeneratorSpec, ...]) -> None:
    """Raise :class:`DispatchError` unless the fleet has a unit with a positive
    cost and ``voll`` exceeds the dearest unit's cost by a factor of at most
    ``VOLL_COST_RATIO``."""
    if not fleet:
        raise DispatchError("fleet must not be empty")
    max_cost = max(g.cost for g in fleet)
    if max_cost == 0:  # then no voll can lie in the range below
        raise DispatchError("fleet: no unit has a positive cost")
    if not max_cost < voll <= VOLL_COST_RATIO * max_cost:
        raise DispatchError(
            f"voll {voll} must be finite and exceed the dearest generator "
            f"({max_cost}), by a factor of at most {VOLL_COST_RATIO:g}"
        )


def check_emission_factor(emission_factor: float) -> None:
    """Raise :class:`DispatchError` unless the emission factor, in kg of CO2
    per gas-fired MWh, is finite and > 0."""
    if not 0 < emission_factor < math.inf:
        raise DispatchError(
            f"emission_factor {emission_factor} must be finite and > 0"
        )


def check_dispatch_series(
    fleet: tuple[GeneratorSpec, ...], demand: np.ndarray, **series: np.ndarray
) -> None:
    """Raise :class:`DispatchError`, naming the series and hour, unless
    ``demand`` and each other named series is finite, nonnegative MW within
    ``MW_LIMIT``, and ``demand`` covers the fleet's total pmin every hour."""
    for label, values in {"demand": demand, **series}.items():
        check_mw(values, label, DispatchError)
        h = int(np.argmax(values > MW_LIMIT))  # the first hour above, if any
        if values[h] > MW_LIMIT:
            raise DispatchError(
                f"{label}: {values[h]:g} MW at hour {h} is above the "
                f"{MW_LIMIT:g} MW limit"
            )
    # Day ahead, every unit runs at pmin or more and nothing can absorb a
    # surplus, so demand below the total pmin has no schedule.
    pmin_total = sum(g.pmin for g in fleet)
    short = np.nonzero(demand < pmin_total)[0]
    if short.size:
        h = int(short[0])
        raise DispatchError(
            f"hour {h}: demand {demand[h]:g} MW is below the fleet's total "
            f"pmin {pmin_total:g} MW, so no day-ahead schedule exists"
        )


@dataclass(frozen=True)
class DispatchCase:
    """One dispatch horizon: demand, the forecast renewable cap used day
    ahead, the actual renewable output seen in real time, and the fleet."""

    demand: np.ndarray
    forecast: np.ndarray
    actual: np.ndarray
    fleet: tuple[GeneratorSpec, ...]
    voll: float = 1000.0
    emission_factor: float = 202.0

    def __post_init__(self) -> None:
        demand = np.atleast_1d(np.asarray(self.demand, dtype=float))
        forecast = np.atleast_1d(np.asarray(self.forecast, dtype=float))
        actual = np.atleast_1d(np.asarray(self.actual, dtype=float))
        t = demand.shape[0]
        if t == 0:
            raise DispatchError("horizon must cover at least one hour")
        if forecast.shape != (t,) or actual.shape != (t,):
            raise DispatchError(
                f"series lengths differ: demand {t}, forecast "
                f"{forecast.shape[0]}, actual {actual.shape[0]}"
            )
        check_dispatch_series(self.fleet, demand, forecast=forecast, actual=actual)
        fleet = tuple(self.fleet)
        check_voll(self.voll, fleet)
        check_emission_factor(self.emission_factor)
        object.__setattr__(self, "demand", demand)
        object.__setattr__(self, "forecast", forecast)
        object.__setattr__(self, "actual", actual)
        object.__setattr__(self, "fleet", fleet)

    @property
    def horizon(self) -> int:
        return int(self.demand.shape[0])


@dataclass
class DaSolution:
    """Day-ahead schedule: generator outputs (V, T), renewable usage,
    shedding, and the objective value."""

    p: np.ndarray
    rnw: np.ndarray
    ls: np.ndarray
    objective: float
    iterations: int = 0


@dataclass
class RtSolution:
    """Real-time outcome: signed adjustments (zero rows for units frozen at
    their day-ahead schedule), spillage, signed shedding revision, and the
    adjustment objective."""

    delta: np.ndarray
    spill: np.ndarray
    ls_rt: np.ndarray
    objective: float
    iterations: int = 0


@dataclass(frozen=True)
class CaseMetrics:
    """Grid metrics of one dispatch case: gas-fired energy, its CO2, load
    shedding, spillage, and the day-ahead plus real-time cost."""

    gas_mwh: float
    co2_kg: float
    load_shedding_mwh: float
    spillage_mwh: float
    da_rt_cost_usd: float


@dataclass(frozen=True)
class EvaluationReport(CaseMetrics):
    """The headline metrics for one forecast method: the grid metrics
    totalled over its span, and the forecast's NMAE."""

    nmae: float


def nmae(forecast: np.ndarray, actual: np.ndarray) -> float:
    """Mean absolute error divided by the mean of the actual series; NaN,
    as undefined, when that mean is zero."""
    forecast = np.asarray(forecast, dtype=float)
    actual = np.asarray(actual, dtype=float)
    if forecast.shape != actual.shape or forecast.ndim != 1 or forecast.size == 0:
        raise DispatchError("nmae needs two equal-length non-empty series")
    mean_actual = float(actual.mean())
    if mean_actual == 0.0:
        return math.nan
    return float(np.abs(forecast - actual).mean()) / mean_actual


@functools.lru_cache(maxsize=8)
def _market(
    units: tuple[GeneratorSpec, ...], t_n: int, rnw_sign: float, voll: float
) -> tuple[LinearProgram, StandardForm]:
    """What no day moves, built once per market: :func:`_market_lp` with zero
    rhs and bounds, whose read-only costs and matrices all days share, and
    their standard form."""
    n_u = len(units) * t_n
    cost = np.repeat([float(g.cost) for g in units], t_n)
    c = np.concatenate([cost, np.zeros(t_n), np.full(t_n, voll)])

    # Entries are assigned into zeros, so every untouched one stays +0.0.
    hours = np.arange(t_n)
    a_eq = np.zeros((t_n, n_u + 2 * t_n))
    a_eq[np.tile(hours, len(units)), np.arange(n_u)] = 1.0
    a_eq[hours, n_u + hours] = rnw_sign
    a_eq[hours, n_u + t_n + hours] = 1.0

    # Accumulated, not assigned: at T = 1 an hour is its own predecessor,
    # and its +1 and -1 must cancel to +0.0.
    col = np.arange(n_u)
    prev = np.roll(col.reshape(len(units), t_n), 1, axis=1).ravel()
    a_ub = np.zeros((2 * n_u, c.size))
    a_ub[2 * col, col] += 1.0
    a_ub[2 * col, prev] -= 1.0
    a_ub[2 * col + 1, col] -= 1.0
    a_ub[2 * col + 1, prev] += 1.0
    for array in (c, a_eq, a_ub):
        array.setflags(write=False)
    zeros = np.zeros(c.size)
    lp = LinearProgram(c, a_eq, zeros[:t_n], a_ub, np.zeros(2 * n_u), zeros, zeros)
    return lp, StandardForm(lp.A_eq, lp.A_ub, np.isfinite(lp.upper))


def _market_lp(
    units: tuple[GeneratorSpec, ...],
    committed: np.ndarray,
    rnw_sign: float,
    rnw_upper: np.ndarray,
    ls_lower: np.ndarray,
    ls_upper: np.ndarray,
    voll: float,
    b_eq: np.ndarray,
) -> LinearProgram:
    """The program both markets share: U ``units`` over T hours, moving
    around a ``committed`` (U, T) schedule. Only the bounds and right-hand
    sides are computed here; the costs and matrices are those of the
    :func:`_market` of ``units``, T, ``rnw_sign`` and ``voll``.

    Variable layout: unit moves u[k,t] in [pmin - committed, pmax -
    committed] grouped by unit, then a renewable column r[t] in [0,
    rnw_upper[t]], then shedding ls[t] in [ls_lower[t], ls_upper[t]].
    Balance rows: sum_k u[k,t] + rnw_sign * r[t] + ls[t] = b_eq[t]. Each
    unit-hour has an up row u[k,t] - u[k,t-1] <= ramp - base[k,t], then a
    down row u[k,t-1] - u[k,t] <= ramp + base[k,t], where base[k,t] is the
    committed move into hour t and hour 0 wraps to the last hour.
    """
    t_n = committed.shape[1]
    pmin, pmax, ramp = np.array(
        [[getattr(g, key) for g in units] for key in ("pmin", "pmax", "ramp")],
        dtype=float,
    )[..., None]
    base = committed - np.roll(committed, 1, axis=1)
    lo = np.concatenate([(pmin - committed).ravel(), np.zeros(t_n), ls_lower])
    up = np.concatenate([(pmax - committed).ravel(), rnw_upper, ls_upper])
    b_ub = np.empty(2 * base.size)
    b_ub[0::2] = (ramp - base).ravel()
    b_ub[1::2] = (ramp + base).ravel()
    market, _ = _market(units, t_n, rnw_sign, voll)
    return replace(market, b_eq=b_eq, b_ub=b_ub, lower=lo, upper=up)


def _market_columns(
    x: np.ndarray, u_n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A solution of :func:`_market_lp` over ``u_n`` units cut into its
    (U, T) unit rows, its renewable column and its shedding column."""
    t_n = x.size // (u_n + 2)
    units, rnw, ls = np.split(x, [u_n * t_n, (u_n + 1) * t_n])
    return units.reshape(u_n, t_n), rnw, ls


def build_da_lp(case: DispatchCase) -> LinearProgram:
    """Assemble the day-ahead program: the market of every unit around a
    zero commitment, so the unit columns are p[v,t] grouped by generator."""
    return _market_lp(
        units=case.fleet,
        committed=np.zeros((len(case.fleet), case.horizon)),
        rnw_sign=1.0,
        rnw_upper=case.forecast,
        ls_lower=np.zeros(case.horizon),
        ls_upper=case.demand,
        voll=case.voll,
        b_eq=case.demand.copy(),
    )


def _solve_audited(lp: LinearProgram, form: StandardForm, market: str) -> LpSolution:
    """Solve a dispatch program through its market's standard form and audit
    the answer. Every case that :class:`DispatchCase` admits is feasible, so
    anything but an optimal, feasible point is a solver fault."""
    sol = solve_lp(lp, form)
    if sol.status is not LpStatus.OPTIMAL:
        raise DispatchInternalError(
            f"{market} dispatch came back {sol.status.value}; the formulation "
            "guarantees feasibility, so the solver is broken"
        )
    bad = check_solution(lp, sol, tol=1e-6)
    if bad:
        raise DispatchInternalError(
            f"{market} solution failed feasibility audit: {bad[0].message}"
        )
    return sol


def solve_da(case: DispatchCase) -> DaSolution:
    """Solve the day-ahead program and unpack the schedule."""
    _, form = _market(case.fleet, case.horizon, 1.0, case.voll)
    sol = _solve_audited(build_da_lp(case), form, "day-ahead")
    p, rnw, ls = _market_columns(sol.x, len(case.fleet))
    return DaSolution(p, rnw, ls, float(sol.objective), sol.iterations)


def build_rt_lp(case: DispatchCase, da: DaSolution) -> LinearProgram:
    """Assemble the real-time adjustment program around a day-ahead schedule.

    Variable layout: d[v,t] for flexible units only (grouped by unit), then
    spill[t], then ls_rt[t]. Capacity and shedding windows are encoded as
    bounds; combined-schedule ramp limits are inequality rows.
    """
    flex = [v for v, g in enumerate(case.fleet) if g.rt_available]
    return _market_lp(
        units=tuple(case.fleet[v] for v in flex),
        committed=da.p[flex],
        rnw_sign=-1.0,
        rnw_upper=case.actual,
        ls_lower=-da.ls,
        ls_upper=case.demand - da.ls,
        voll=case.voll,
        # The balance rhs carries the committed day-ahead terms.
        b_eq=case.demand - da.p.sum(axis=0) - case.actual - da.ls,
    )


def solve_rt(case: DispatchCase, da: DaSolution) -> RtSolution:
    """Solve the real-time adjustment program against actual renewables."""
    flex = [v for v, g in enumerate(case.fleet) if g.rt_available]
    _, form = _market(tuple(case.fleet[v] for v in flex), case.horizon, -1.0, case.voll)
    sol = _solve_audited(build_rt_lp(case, da), form, "real-time")
    moves, spill, ls_rt = _market_columns(sol.x, len(flex))
    delta = np.zeros((len(case.fleet), case.horizon))
    delta[flex] = moves
    return RtSolution(delta, spill, ls_rt, float(sol.objective), sol.iterations)


def case_metrics(case: DispatchCase, da: DaSolution, rt: RtSolution) -> CaseMetrics:
    """The grid metrics of one solved day-ahead + real-time case."""
    gas_mask = np.array([g.gas_fired for g in case.fleet], dtype=bool)
    combined = da.p + rt.delta
    gas_mwh = float(combined[gas_mask].sum())  # +0.0 without a gas-fired unit
    return CaseMetrics(
        gas_mwh=gas_mwh,
        co2_kg=case.emission_factor * gas_mwh,
        load_shedding_mwh=float((da.ls + rt.ls_rt).sum()),
        spillage_mwh=float(rt.spill.sum()),
        da_rt_cost_usd=float(da.objective + rt.objective),
    )


def span_report(
    daily: list[CaseMetrics], forecast: np.ndarray, actual: np.ndarray, factor: float
) -> EvaluationReport:
    """A span's report from its days' metrics in calendar order: each grid metric
    totalled from 0.0, CO2 at ``factor`` kg per gas-fired MWh, and the NMAE."""
    totals = {f.name: 0.0 for f in fields(CaseMetrics) if f.name != "co2_kg"}
    for day in daily:
        for key in totals:
            totals[key] += getattr(day, key)
    co2_kg = factor * totals["gas_mwh"]
    return EvaluationReport(**totals, co2_kg=co2_kg, nmae=nmae(forecast, actual))


_FLEET_HEADER = ["name", "cost", "pmax", "pmin", "ramp", "rt_available", "gas_fired"]


def load_fleet_csv(path: str | Path) -> tuple[GeneratorSpec, ...]:
    """Fleet file: header ``name,cost,pmax,pmin,ramp,rt_available,gas_fired``
    with 0/1 flags."""
    path = Path(path)
    seen: set[str] = set()

    def check_header(header: list[str] | None) -> None:
        if header != _FLEET_HEADER:
            raise ValueError(f"header must be {','.join(_FLEET_HEADER)!r}")

    def parse_row(row: list[str]) -> GeneratorSpec:
        if len(row) != len(_FLEET_HEADER):
            raise ValueError("expected 7 fields")
        name = row[0].strip()
        if name in seen:
            raise ValueError(f"unit {name!r} is named twice")
        seen.add(name)
        return GeneratorSpec(
            name=name,
            cost=float(row[1]),
            pmax=float(row[2]),
            pmin=float(row[3]),
            ramp=float(row[4]),
            rt_available=_parse_flag(row[5]),
            gas_fired=_parse_flag(row[6]),
        )

    fleet = read_csv_rows(path, check_header, parse_row, DispatchError)
    if not fleet:
        raise DispatchError(f"{path}: no generators")
    if not any(g.cost > 0 for g in fleet):  # no voll could exceed its costs
        raise DispatchError(f"{path}: no unit has a positive cost")
    return tuple(fleet)


def save_fleet_csv(fleet: tuple[GeneratorSpec, ...], path: str | Path) -> None:
    columns = [[getattr(g, key) for g in fleet] for key in _FLEET_HEADER]
    write_table(path, _FLEET_HEADER, [*columns[:5], *np.array(columns[5:], int)])


def _parse_flag(cell: str) -> bool:
    v = cell.strip().lower()
    if v in ("1", "true", "yes"):
        return True
    if v in ("0", "false", "no"):
        return False
    raise ValueError(f"flag must be 0/1, got {cell!r}")
