import resource
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    enumerate_vertices,
    exact_dot,
    exact_lower_bound,
    merit_order_cost,
    random_benign_case,
    random_dispatch_case,
    reference_da_lp,
    reference_rt_lp,
)
from pvdispatch import dispatch
from pvdispatch.dispatch import (
    MW_LIMIT,
    VOLL_COST_RATIO,
    DispatchCase,
    DispatchError,
    EvaluationReport,
    GeneratorSpec,
    build_da_lp,
    build_rt_lp,
    case_metrics,
    default_fleet,
    load_fleet_csv,
    nmae,
    save_fleet_csv,
    solve_da,
    solve_rt,
)
from pvdispatch.lp import LpError, LpSolution, LpStatus, check_solution, solve_lp
from pvdispatch.synth import synth_year


def case_t1(demand, forecast, actual=None, fleet=None, voll=1000.0):
    return DispatchCase(
        demand=[demand],
        forecast=[forecast],
        actual=[actual if actual is not None else forecast],
        fleet=fleet or default_fleet(),
        voll=voll,
    )


class TestBuildDaLp:
    def test_t1_shape(self):
        lp = build_da_lp(case_t1(80.0, 0.0))
        assert lp.n_vars == 5  # 3 generators + rnw + ls
        assert lp.A_eq.shape == (1, 5)
        # up and down ramp rows per generator, degenerate at T=1
        assert lp.A_ub.shape == (6, 5)
        np.testing.assert_array_equal(lp.A_ub, 0.0)

    def test_t2_ramp_rows_include_wrap(self):
        case = DispatchCase(
            demand=[50.0, 60.0], forecast=[0.0, 0.0], actual=[0.0, 0.0],
            fleet=default_fleet(),
        )
        lp = build_da_lp(case)
        # 2 up + 2 down rows per generator, covering t=1->0 and the wrap 0->1
        assert lp.A_ub.shape == (12, lp.n_vars)
        per_gen = lp.A_ub[:4, :]
        assert np.count_nonzero(per_gen) == 8

    def test_zero_demand_zero_solution(self):
        case = DispatchCase(
            demand=[0.0, 0.0], forecast=[5.0, 5.0], actual=[5.0, 5.0],
            fleet=default_fleet(),
        )
        da = solve_da(case)
        assert da.objective == pytest.approx(0.0, abs=1e-9)
        np.testing.assert_allclose(da.p, 0.0, atol=1e-9)

    def test_inconsistent_lengths_rejected(self):
        with pytest.raises(DispatchError, match="lengths"):
            DispatchCase(
                demand=[1.0, 2.0], forecast=[0.0], actual=[0.0, 0.0],
                fleet=default_fleet(),
            )

    def test_demand_below_total_pmin_rejected_naming_hour(self):
        fleet = (
            GeneratorSpec("G1", cost=20.0, pmax=50.0, pmin=15.0, ramp=20.0),
            GeneratorSpec(
                "G2", cost=30.0, pmax=30.0, pmin=5.0, ramp=30.0, rt_available=True
            ),
        )
        zeros = [0.0] * 4
        with pytest.raises(DispatchError, match="hour 2"):
            DispatchCase(
                demand=[40.0, 20.0, 19.0, 10.0], forecast=zeros, actual=zeros,
                fleet=fleet,
            )
        # Demand equal to the total pmin still has a schedule.
        case = DispatchCase(
            demand=[20.0] * 4, forecast=zeros, actual=zeros, fleet=fleet
        )
        np.testing.assert_allclose(solve_da(case).p, [[15.0] * 4, [5.0] * 4])


class TestSolveDa:
    def test_merit_order_fixture(self):
        da = solve_da(case_t1(80.0, 0.0))
        np.testing.assert_allclose(da.p[:, 0], [50.0, 30.0, 0.0], atol=1e-6)
        assert da.objective == pytest.approx(1750.0, abs=1e-6)

    def test_merit_order_matches_fill_oracle(self):
        fleet = default_fleet()
        for demand in (10.0, 55.0, 80.0, 101.0, 130.0):
            expected_cost, expected_sched = merit_order_cost(demand, fleet)
            da = solve_da(case_t1(demand, 0.0))
            assert da.objective == pytest.approx(expected_cost, abs=1e-6)
            np.testing.assert_allclose(da.p[:, 0], expected_sched, atol=1e-6)

    def test_free_renewable_preferred(self):
        da = solve_da(case_t1(20.0, 30.0))
        assert da.rnw[0] == pytest.approx(20.0, abs=1e-9)
        np.testing.assert_allclose(da.p[:, 0], 0.0, atol=1e-9)
        assert da.objective == pytest.approx(0.0, abs=1e-9)

    def test_shortage_sheds_at_voll(self):
        da = solve_da(case_t1(200.0, 0.0))
        assert da.ls[0] == pytest.approx(70.0, abs=1e-6)
        expected = 50 * 20 + 50 * 25 + 30 * 30 + 70 * 1000
        assert da.objective == pytest.approx(expected, abs=1e-6)

    def test_t1_against_vertex_enumeration(self):
        for demand, forecast in ((80.0, 0.0), (60.0, 25.0), (140.0, 10.0)):
            case = case_t1(demand, forecast)
            lp = build_da_lp(case)
            status, best, _ = enumerate_vertices(lp)
            assert status == "optimal"
            da = solve_da(case)
            assert da.objective == pytest.approx(best, abs=1e-6)

    def test_ramp_constraints_bind(self):
        # Demand jumps by 60; each unit can move at most its ramp.
        fleet = (
            GeneratorSpec("A", cost=10.0, pmax=100.0, ramp=15.0),
            GeneratorSpec("B", cost=50.0, pmax=100.0, ramp=15.0, rt_available=True),
        )
        case = DispatchCase(
            demand=[20.0, 80.0, 20.0, 20.0], forecast=[0.0] * 4,
            actual=[0.0] * 4, fleet=fleet,
        )
        da = solve_da(case)
        moves_a = np.abs(np.diff(np.r_[da.p[0], da.p[0, 0]]))
        moves_b = np.abs(np.diff(np.r_[da.p[1], da.p[1, 0]]))
        assert moves_a.max() <= 15.0 + 1e-6
        assert moves_b.max() <= 15.0 + 1e-6
        balance = da.p.sum(axis=0) + da.rnw + da.ls
        np.testing.assert_allclose(balance, case.demand, atol=1e-6)


class TestSolveRt:
    def test_zero_error_closure_single(self):
        rng = np.random.Generator(np.random.PCG64(0))
        case = random_benign_case(rng)
        da = solve_da(case)
        rt = solve_rt(case, da)
        assert rt.objective == pytest.approx(0.0, abs=1e-6)
        assert rt.spill.sum() == pytest.approx(0.0, abs=1e-6)
        np.testing.assert_allclose(rt.ls_rt, 0.0, atol=1e-6)

    def test_shortfall_covered_by_flexible_unit(self):
        t = np.arange(24)
        demand = 80 + 15 * np.sin(2 * np.pi * (t - 15) / 24)
        pv = np.clip(24 * np.sin(np.pi * (t - 6) / 12), 0.0, None)
        actual = pv.copy()
        actual[12] -= 10.0
        case = DispatchCase(
            demand=demand, forecast=pv, actual=actual, fleet=default_fleet()
        )
        da = solve_da(case)
        rt = solve_rt(case, da)
        assert rt.delta[2, 12] == pytest.approx(10.0, abs=1e-6)
        assert rt.objective == pytest.approx(300.0, abs=1e-6)  # 10 MWh at $30

    def test_surplus_spilled_when_nothing_can_back_down(self):
        # Day-ahead sees no renewables; actuals exceed demand headroom and
        # the only flexible unit was never scheduled, so surplus spills.
        fleet = default_fleet()
        case = DispatchCase(
            demand=[80.0], forecast=[0.0], actual=[30.0], fleet=fleet
        )
        da = solve_da(case)
        rt = solve_rt(case, da)
        # 30 MW arrives; demand can absorb it by backing down... only G3 is
        # flexible and holds 0 MW day-ahead, so nothing backs down: spill.
        assert rt.spill[0] == pytest.approx(30.0, abs=1e-6)
        assert rt.objective == pytest.approx(0.0, abs=1e-6)

    def test_surplus_first_relieves_scheduled_flexible_unit(self):
        case = case_t1(120.0, 0.0, actual=25.0)
        da = solve_da(case)
        assert da.p[2, 0] == pytest.approx(20.0, abs=1e-6)  # G3 scheduled
        rt = solve_rt(case, da)
        # Backing G3 down earns -30/MWh; 20 MW down, remaining 5 spills.
        assert rt.delta[2, 0] == pytest.approx(-20.0, abs=1e-6)
        assert rt.spill[0] == pytest.approx(5.0, abs=1e-6)
        assert rt.objective == pytest.approx(-600.0, abs=1e-6)

    def test_surplus_restores_shed_load_before_spilling(self):
        case = case_t1(200.0, 0.0, actual=40.0)
        da = solve_da(case)
        assert da.ls[0] == pytest.approx(70.0, abs=1e-6)
        rt = solve_rt(case, da)
        # Serving previously shed load credits VOLL, far better than spill.
        assert rt.ls_rt[0] == pytest.approx(-40.0, abs=1e-6)
        assert rt.spill[0] == pytest.approx(0.0, abs=1e-6)
        assert rt.objective == pytest.approx(-40000.0, abs=1e-6)

    def test_frozen_units_hold_day_ahead_schedule(self):
        rng = np.random.Generator(np.random.PCG64(3))
        case = random_benign_case(rng)
        actual = case.actual * 0.6
        case2 = DispatchCase(
            demand=case.demand, forecast=case.forecast, actual=actual,
            fleet=case.fleet, voll=case.voll,
        )
        da = solve_da(case2)
        rt = solve_rt(case2, da)
        for v, gen in enumerate(case2.fleet):
            if not gen.rt_available:
                np.testing.assert_array_equal(rt.delta[v], 0.0)

    def test_rt_capacity_and_ramp_respected(self):
        rng = np.random.Generator(np.random.PCG64(4))
        for trial in range(10):
            case = random_benign_case(rng)
            scale = rng.uniform(0.3, 1.7, case.horizon)
            case = DispatchCase(
                demand=case.demand, forecast=case.forecast,
                actual=case.forecast * scale, fleet=case.fleet, voll=case.voll,
            )
            da = solve_da(case)
            rt = solve_rt(case, da)
            combined = da.p + rt.delta
            for v, gen in enumerate(case.fleet):
                assert combined[v].min() >= -1e-6
                assert combined[v].max() <= gen.pmax + 1e-6
                moves = np.abs(np.diff(np.r_[combined[v], combined[v, 0]]))
                assert moves.max() <= gen.ramp + 1e-6
            assert (rt.spill <= case.actual + 1e-6).all()
            total_shed = da.ls + rt.ls_rt
            assert total_shed.min() >= -1e-6
            assert (total_shed <= case.demand + 1e-6).all()


class TestMetrics:
    def test_co2_identity_fixtures(self):
        # emission factor 202 kg/MWh
        assert abs(263.7 * 202 - 53267) <= 1.0
        assert abs(108.7 * 202 - 21957) <= 1.0
        assert abs(140.56 * 202 - 28393) <= 1.0

    def test_report_co2_consistency(self):
        case = case_t1(120.0, 0.0)
        da = solve_da(case)
        rt = solve_rt(case, da)
        metrics = case_metrics(case, da, rt)
        assert metrics.co2_kg == metrics.gas_mwh * 202.0
        assert metrics.gas_mwh == pytest.approx(20.0, abs=1e-6)

    def test_nmae_perfect_zero(self):
        assert nmae(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0

    def test_nmae_hand_example(self):
        assert nmae(np.array([5.0, 5.0]), np.array([0.0, 10.0])) == pytest.approx(1.0)

    def test_nmae_zero_mean_is_nan(self):
        assert np.isnan(nmae(np.array([1.0]), np.array([0.0])))

    @given(
        scale=st.floats(0.01, 100.0),
        values=st.lists(st.floats(0.0, 50.0), min_size=2, max_size=12),
        offsets=st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_nmae_scale_invariance(self, scale, values, offsets):
        n = min(len(values), len(offsets))
        actual = np.array(values[:n]) + 1.0  # keep the mean positive
        forecast = np.clip(actual + np.array(offsets[:n]), 0.0, None)
        base = nmae(forecast, actual)
        scaled = nmae(scale * forecast, scale * actual)
        assert scaled == pytest.approx(base, rel=1e-9, abs=1e-12)

    def test_cost_is_sum_of_objectives(self):
        case = case_t1(90.0, 10.0, actual=2.0)
        da = solve_da(case)
        rt = solve_rt(case, da)
        metrics = case_metrics(case, da, rt)
        assert metrics.da_rt_cost_usd == pytest.approx(da.objective + rt.objective)


class TestProperties:
    def test_zero_error_closure_many_cases(self):
        rng = np.random.Generator(np.random.PCG64(123))
        for _ in range(20):
            case = random_benign_case(rng)
            da = solve_da(case)
            rt = solve_rt(case, da)
            assert abs(rt.objective) <= 1e-6
            assert rt.spill.max(initial=0.0) <= 1e-6
            assert np.abs(rt.ls_rt).max(initial=0.0) <= 1e-6

    def test_monotone_shortfall_cost(self):
        rng = np.random.Generator(np.random.PCG64(321))
        for _ in range(8):
            case = random_benign_case(rng)
            da = solve_da(case)
            rt_full = solve_rt(case, da)
            cost_full = da.objective + rt_full.objective
            shrink = rng.uniform(0.3, 0.95, case.horizon)
            case_low = DispatchCase(
                demand=case.demand, forecast=case.forecast,
                actual=case.actual * shrink, fleet=case.fleet, voll=case.voll,
            )
            rt_low = solve_rt(case_low, da)
            cost_low = da.objective + rt_low.objective
            assert cost_low >= cost_full - 1e-6

    def test_spill_never_exceeds_total_actual(self):
        rng = np.random.Generator(np.random.PCG64(55))
        for _ in range(10):
            case = random_benign_case(rng)
            boost = rng.uniform(1.0, 2.5, case.horizon)
            case2 = DispatchCase(
                demand=case.demand, forecast=case.forecast,
                actual=case.actual * boost, fleet=case.fleet, voll=case.voll,
            )
            da = solve_da(case2)
            rt = solve_rt(case2, da)
            assert rt.spill.sum() <= case2.actual.sum() + 1e-6

    def test_emitted_schedules_pass_lp_audit(self):
        rng = np.random.Generator(np.random.PCG64(77))
        case = random_benign_case(rng)
        case = DispatchCase(
            demand=case.demand, forecast=case.forecast,
            actual=case.actual * rng.uniform(0.5, 1.5, case.horizon),
            fleet=case.fleet, voll=case.voll,
        )
        lp_da = build_da_lp(case)
        sol_da = solve_lp(lp_da)
        assert check_solution(lp_da, sol_da, tol=1e-6) == []
        da = solve_da(case)
        lp_rt = build_rt_lp(case, da)
        sol_rt = solve_lp(lp_rt)
        assert check_solution(lp_rt, sol_rt, tol=1e-6) == []


_LP_ARRAYS = ("c", "A_eq", "b_eq", "A_ub", "b_ub", "lower", "upper")


def assert_builders_match_reference(case: DispatchCase) -> None:
    # Bytes, not values: a -0.0 where the reference has +0.0 is a change.
    da = solve_da(case)
    for built, ref in (
        (build_da_lp(case), reference_da_lp(case)),
        (build_rt_lp(case, da), reference_rt_lp(case, da)),
    ):
        for name in _LP_ARRAYS:
            got, want = getattr(built, name), getattr(ref, name)
            assert got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name


def small_fleet_case(rng, horizon: int, n_rt: int) -> DispatchCase:
    """Three units, the first ``n_rt`` of them movable in real time, with
    shedding, spill and forecast errors of both signs all possible."""
    fleet = tuple(
        GeneratorSpec(
            f"G{i}",
            cost=float(rng.uniform(5.0, 40.0)),
            pmax=50.0,
            pmin=float(rng.choice([0.0, 5.0])),
            ramp=float(rng.uniform(5.0, 50.0)),
            rt_available=i < n_rt,
            gas_fired=bool(i % 2),
        )
        for i in range(3)
    )
    actual = rng.uniform(0.0, 60.0, horizon) * (rng.random(horizon) < 0.7)
    return DispatchCase(
        demand=rng.uniform(15.0, 140.0, horizon),
        forecast=np.clip(actual * rng.uniform(0.5, 1.5, horizon), 0.0, None),
        actual=actual,
        fleet=fleet,
    )


class TestBuildersMatchReference:
    @pytest.mark.parametrize("n_rt", [0, 1, 3])
    @pytest.mark.parametrize("horizon", [1, 2, 24])
    def test_small_fleets(self, horizon, n_rt):
        rng = np.random.Generator(np.random.PCG64(100 * horizon + n_rt))
        for _ in range(3):
            assert_builders_match_reference(small_fleet_case(rng, horizon, n_rt))

    def test_random_days(self):
        rng = np.random.Generator(np.random.PCG64(606))
        for _ in range(40):
            assert_builders_match_reference(random_dispatch_case(rng))


def days_of_one_fleet(rng, n: int, horizon: int = 24) -> list[DispatchCase]:
    """``n`` days of one random fleet: demand, forecast and actual all move
    from day to day."""
    first = random_dispatch_case(rng, horizon)
    pmin_total = sum(g.pmin for g in first.fleet)
    days = []
    for _ in range(n):
        demand = first.demand * rng.uniform(0.8, 1.2, horizon)
        actual = first.actual * rng.uniform(0.5, 1.5)
        days.append(
            DispatchCase(
                demand=np.maximum(demand, pmin_total),
                forecast=actual * rng.uniform(0.7, 1.3, horizon),
                actual=actual,
                fleet=first.fleet,
            )
        )
    return days


def solved_day_bytes(case: DispatchCase) -> tuple:
    da = solve_da(case)
    return day_bytes(da, solve_rt(case, da))


def day_bytes(da, rt) -> tuple:
    # repr tells -0.0 from 0.0, so equal text is equal bytes.
    arrays = (da.p, da.rnw, da.ls, rt.delta, rt.spill, rt.ls_rt)
    scalars = (da.objective, da.iterations, rt.objective, rt.iterations)
    return tuple(a.tobytes() for a in arrays) + (repr(scalars),)


class TestMarkets:
    """Each (units, horizon, renewable sign, voll) market builds its matrices
    and standard form once per process: the standard-form matrix, its
    row-gather copy and the refine step's basis buffer, which its solves
    reuse."""

    def test_a_day_does_not_depend_on_the_days_solved_before(self):
        rng = np.random.Generator(np.random.PCG64(2028))
        span = days_of_one_fleet(rng, 6)
        days = [
            *span,
            *(replace(case, voll=2.5 * case.voll) for case in span[:2]),
            *days_of_one_fleet(rng, 2),  # a second fleet
            *days_of_one_fleet(rng, 2, horizon=48),
        ]

        def solved_in(order) -> list[tuple]:
            """Each day's bytes, solving from no market in this order."""
            dispatch._market.cache_clear()
            solved = {d: solved_day_bytes(days[d]) for d in order}
            return [solved[d] for d in range(len(days))]

        n = len(span)
        forward = solved_in(range(len(days)))
        backward = solved_in(reversed(range(len(days))))
        others_first = [d for pair in zip(range(n, len(days)), range(n)) for d in pair]
        assert forward == backward == solved_in(others_first)

    def test_a_returned_solution_is_not_overwritten_by_later_solves(self):
        first, *later = days_of_one_fleet(np.random.Generator(np.random.PCG64(5)), 4)
        da = solve_da(first)
        rt = solve_rt(first, da)
        kept = day_bytes(da, rt)
        for case in later:
            solve_rt(case, solve_da(case))
        assert day_bytes(da, rt) == kept

    def test_the_shared_arrays_are_read_only(self):
        case = days_of_one_fleet(np.random.Generator(np.random.PCG64(6)), 1)[0]
        da_lp, rt_lp = build_da_lp(case), build_rt_lp(case, solve_da(case))
        for lp in (da_lp, rt_lp):
            for name in ("c", "A_eq", "A_ub"):
                with pytest.raises(ValueError, match="read-only"):
                    getattr(lp, name)[0, ...] = 7.0

    def test_a_form_solves_only_programs_with_its_matrices(self):
        rng = np.random.Generator(np.random.PCG64(7))
        case, other = random_dispatch_case(rng), random_dispatch_case(rng, 12)
        _, form = dispatch._market(case.fleet, case.horizon, 1.0, case.voll)
        with pytest.raises(LpError, match="another program"):
            solve_lp(build_da_lp(other), form)

    def test_later_days_of_a_fleet_fault_in_few_pages(self):
        """The first day builds the market; the next ten reuse its refine
        buffer. Gathering each solve's basis matrix into a fresh array
        faulted in about 8,300 pages over those ten days, against about 400."""
        first, *later = days_of_one_fleet(np.random.Generator(np.random.PCG64(8)), 11)
        solve_rt(first, solve_da(first))
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for case in later:
            solve_rt(case, solve_da(case))
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 2000


def _highs_objective(linprog, lp) -> float:
    res = linprog(
        lp.c,
        A_ub=lp.A_ub if lp.A_ub.size else None,
        b_ub=lp.b_ub if lp.b_ub.size else None,
        A_eq=lp.A_eq if lp.A_eq.size else None,
        b_eq=lp.b_eq if lp.b_eq.size else None,
        bounds=np.column_stack([lp.lower, lp.upper]),
        method="highs",
    )
    assert res.status == 0, res.message
    return float(res.fun)


def recorded_programs(monkeypatch) -> list[tuple]:
    """A list that gains the ``(lp, solution)`` of each program dispatch
    solves from here on."""
    solved = []

    def record(lp, form):
        solved.append((lp, solve_lp(lp, form)))
        return solved[-1][1]

    monkeypatch.setattr(dispatch, "solve_lp", record)
    return solved


@pytest.fixture(scope="module")
def highs_oracle_days() -> tuple[list[tuple], list[tuple]]:
    """200 random ``PCG64(2026)`` days, each solved once: every day's
    ``(case, da, rt)``, and the ``(lp, solution)`` of each day-ahead then
    real-time program solved, as :func:`solved_programs` gives them. Without
    scipy, which only :class:`TestHighsOracle` needs."""
    rng = np.random.Generator(np.random.PCG64(2026))
    days = []
    with pytest.MonkeyPatch.context() as monkeypatch:
        solved = recorded_programs(monkeypatch)
        for case in (random_dispatch_case(rng) for _ in range(200)):
            da = solve_da(case)
            days.append((case, da, solve_rt(case, da)))
    return days, solved


class TestHighsOracle:
    def test_da_and_rt_match_highs_on_random_days(self, highs_oracle_days):
        linprog = pytest.importorskip("scipy.optimize").linprog
        days, _ = highs_oracle_days
        seen = dict(pmin=0, frozen=0, over=0, under=0, surplus=0)
        for case, da, rt in days:
            pmin_total = sum(g.pmin for g in case.fleet)
            seen["pmin"] += pmin_total > 0
            seen["frozen"] += any(not g.rt_available for g in case.fleet)
            seen["over"] += bool((case.forecast > case.actual).any())
            seen["under"] += bool((case.forecast < case.actual).any())
            seen["surplus"] += bool((case.actual > case.demand - pmin_total).any())

            lp_da = build_da_lp(case)
            x_da = np.concatenate([da.p.ravel(), da.rnw, da.ls])
            sol_da = LpSolution(LpStatus.OPTIMAL, x_da, da.objective, da.iterations)
            assert check_solution(lp_da, sol_da, tol=1e-6) == []
            assert da.objective == pytest.approx(
                _highs_objective(linprog, lp_da), rel=1e-6, abs=1e-6
            )

            lp_rt = build_rt_lp(case, da)
            flex = [g.rt_available for g in case.fleet]
            x_rt = np.concatenate([rt.delta[flex].ravel(), rt.spill, rt.ls_rt])
            sol_rt = LpSolution(LpStatus.OPTIMAL, x_rt, rt.objective, rt.iterations)
            assert check_solution(lp_rt, sol_rt, tol=1e-6) == []
            assert rt.objective == pytest.approx(
                _highs_objective(linprog, lp_rt), rel=1e-6, abs=1e-6
            )
        # The sample must reach each feature for the agreement to cover it.
        assert min(seen.values()) >= 50, seen


# The dispatch-year fleet: G1 and G3 run at pmin > 0, and G2 and G3 move in
# real time.
YEAR_FLEET = (
    GeneratorSpec("G1", cost=20.0, pmax=50.0, pmin=15.0, ramp=20.0),
    GeneratorSpec("G2", cost=25.0, pmax=50.0, pmin=0.0, ramp=20.0, rt_available=True),
    GeneratorSpec(
        "G3", cost=30.0, pmax=30.0, pmin=5.0, ramp=30.0,
        rt_available=True, gas_fired=True,
    ),
)


def year_days(seed: int) -> list[DispatchCase]:
    """Every sixth day of the first 360 of a seeded synthetic year, with the
    dispatch-year fleet: the PV output of three areas summed, and a forecast
    that errs both ways, day by day and hour by hour."""
    generation, demand = synth_year(seed=seed)
    actual = generation.values.sum(axis=1)
    rng = np.random.default_rng(seed)
    error = np.repeat(rng.lognormal(0.0, 0.3, 365), 24)
    forecast = actual * error * rng.lognormal(0.0, 0.1, actual.size)
    return [
        DispatchCase(demand.values[sl, 0], forecast[sl], actual[sl], YEAR_FLEET)
        for sl in (slice(24 * d, 24 * (d + 1)) for d in range(0, 360, 6))
    ]


def solved_programs(monkeypatch, cases) -> list[tuple]:
    """``(lp, solution)`` of each day-ahead then real-time program solved
    for ``cases``."""
    solved = recorded_programs(monkeypatch)
    for case in cases:
        solve_rt(case, solve_da(case))
    return solved


def exact_gap(lp, x, basis) -> Fraction:
    """``c.x`` minus the exact lower bound from ``basis``, without rounding."""
    return exact_dot(lp.c, x) - exact_lower_bound(lp, basis)


class TestExactBound:
    """Every dispatch answer is feasible, and its objective is within 1e-9
    relative of a lower bound proven from its own final basis, so it is
    optimal to that precision, at full size and without scipy."""

    @staticmethod
    def assert_certified(lp, sol):
        assert sol.basis is not None
        assert check_solution(lp, sol, tol=1e-6) == []
        scale = max(abs(sol.objective), 1.0)
        assert abs(exact_gap(lp, sol.x, sol.basis)) <= 1e-9 * scale

    def test_sixty_days_of_a_dispatch_year(self, monkeypatch):
        solved = solved_programs(monkeypatch, year_days(seed=77))
        assert len(solved) == 2 * 60
        for lp, sol in solved:
            self.assert_certified(lp, sol)

    def test_the_highs_oracle_days(self, highs_oracle_days):
        _, solved = highs_oracle_days
        assert len(solved) == 400
        for lp, sol in solved:
            self.assert_certified(lp, sol)

    def test_a_feasible_answer_that_is_not_optimal_is_refused(self, monkeypatch):
        """1 MW moved from G1 (20 $/MWh) to G2 (25 $/MWh) in an hour where
        both have room keeps the day-ahead answer feasible and costs 5 $
        more; the bound from the optimal basis refuses it by those 5 $."""
        case = year_days(seed=77)[0]
        (lp, sol), _ = solved_programs(monkeypatch, [case])
        g1, g2 = (np.arange(24) + 24 * v for v in (0, 1))  # p[v, t] columns
        for t in range(24):
            x = sol.x.copy()
            x[g1[t]] -= 1.0
            x[g2[t]] += 1.0
            moved = LpSolution(LpStatus.OPTIMAL, x, float(lp.c @ x), 0)
            if check_solution(lp, moved, tol=1e-9) == []:
                break
        else:
            pytest.fail("no hour has room to move 1 MW from G1 to G2")
        gap = float(exact_gap(lp, moved.x, sol.basis))
        assert gap > 1e-9 * max(abs(moved.objective), 1.0)
        assert gap == pytest.approx(5.0, abs=1e-6)


class TestNumericRange:
    """Dispatch takes MW figures up to MW_LIMIT and a voll of at most
    VOLL_COST_RATIO times the dearest unit's cost; outside, the absolute
    tolerances of the simplex no longer hold its answers to HiGHS's."""

    @pytest.mark.parametrize("key", ["pmax", "ramp"])
    def test_unit_figure_above_the_limit_is_named(self, key):
        figures = dict(pmax=50.0, ramp=20.0)
        figures[key] = 2.0 * MW_LIMIT
        with pytest.raises(DispatchError, match=f"^G1: {key} 200000 MW is above"):
            GeneratorSpec("G1", cost=20.0, **figures)

    @pytest.mark.parametrize("label", ["demand", "forecast", "actual"])
    def test_series_above_the_limit_is_named(self, label):
        series = dict(
            demand=[80.0, 90.0, 85.0], forecast=[5.0, 6.0, 7.0], actual=[5.0, 6.0, 7.0]
        )
        # Then a later, larger figure: the first hour above the limit is named.
        for later in (series[label][2], 3.0 * MW_LIMIT):
            series[label] = [series[label][0], 1.5 * MW_LIMIT, later]
            with pytest.raises(DispatchError, match=f"^{label}: 150000 MW at hour 1 "):
                DispatchCase(fleet=default_fleet(), **series)

    @pytest.mark.parametrize("costs", [(20.0, 25.0, 30.0)])
    def test_voll_beyond_the_ratio_to_the_dearest_cost_is_named(self, costs):
        fleet = tuple(
            GeneratorSpec(f"G{i}", cost=c, pmax=50.0, ramp=20.0)
            for i, c in enumerate(costs)
        )
        voll = 2.0 * VOLL_COST_RATIO * max(costs)
        with pytest.raises(DispatchError, match="^voll .* at most 100000"):
            case_t1(80.0, 0.0, fleet=fleet, voll=voll)
        case_t1(80.0, 0.0, fleet=fleet, voll=VOLL_COST_RATIO * max(costs))

    @pytest.mark.parametrize("voll", [1e-3, 1000.0, 1e17])
    def test_a_fleet_without_a_positive_cost_is_named_whatever_the_voll(self, voll):
        """The voll range (0, 0] such a fleet would leave is empty."""
        fleet = tuple(
            GeneratorSpec(f"G{i}", cost=0.0, pmax=50.0, ramp=20.0) for i in range(3)
        )
        with pytest.raises(DispatchError, match="^fleet: no unit has a positive cost$"):
            case_t1(80.0, 0.0, fleet=fleet, voll=voll)

    def test_answers_at_the_edge_of_the_range_match_highs(self):
        """Every MW figure scaled so the largest is MW_LIMIT, and voll at its
        largest: both programs still match HiGHS."""
        linprog = pytest.importorskip("scipy.optimize").linprog
        rng = np.random.Generator(np.random.PCG64(2027))
        for _ in range(30):
            case = random_dispatch_case(rng)
            fleet = case.fleet
            top = max(
                case.demand.max(), case.forecast.max(), case.actual.max(),
                max(max(g.pmax, g.ramp) for g in fleet),
            )
            k = (1.0 - 1e-9) * MW_LIMIT / top  # so that no product rounds past
            case = DispatchCase(
                demand=case.demand * k,
                forecast=case.forecast * k,
                actual=case.actual * k,
                fleet=tuple(
                    GeneratorSpec(
                        g.name, g.cost, g.pmax * k, g.pmin * k, g.ramp * k,
                        g.rt_available, g.gas_fired,
                    )
                    for g in fleet
                ),
                voll=VOLL_COST_RATIO * max(g.cost for g in fleet),
            )
            da = solve_da(case)
            assert da.objective == pytest.approx(
                _highs_objective(linprog, build_da_lp(case)), rel=1e-6, abs=1e-6
            )
            rt = solve_rt(case, da)
            assert rt.objective == pytest.approx(
                _highs_objective(linprog, build_rt_lp(case, da)), rel=1e-6, abs=1e-6
            )


class TestFleetCsv:
    def test_roundtrip(self, tmp_path):
        p = tmp_path / "fleet.csv"
        save_fleet_csv(default_fleet(), p)
        back = load_fleet_csv(p)
        assert back == default_fleet()

    def test_numpy_float_fields_roundtrip(self, tmp_path):
        # A cost computed with numpy is an np.float64, whose repr under
        # numpy 2 is "np.float64(20.0)"; the file must still hold 20.0.
        fleet = (GeneratorSpec("G1", cost=np.float64(20.0), pmax=50.0, ramp=20.0),)
        p = tmp_path / "fleet.csv"
        save_fleet_csv(fleet, p)
        assert load_fleet_csv(p) == fleet

    def test_header_enforced(self, tmp_path):
        p = tmp_path / "fleet.csv"
        p.write_text("nom,cost\nG1,5\n")
        with pytest.raises(DispatchError, match="header"):
            load_fleet_csv(p)

    def test_bad_flag_reported_with_row(self, tmp_path):
        p = tmp_path / "fleet.csv"
        p.write_text(
            "name,cost,pmax,pmin,ramp,rt_available,gas_fired\n"
            "G1,20,50,0,20,maybe,0\n"
        )
        with pytest.raises(DispatchError, match="row 1"):
            load_fleet_csv(p)

    @pytest.mark.parametrize("field, cell", [("cost", "nan"), ("ramp", "inf")])
    def test_non_finite_value_names_row_unit_and_field(self, tmp_path, field, cell):
        p = tmp_path / "fleet.csv"
        save_fleet_csv(default_fleet(), p)
        lines = p.read_text().splitlines()
        header = lines[0].split(",")
        row = lines[2].split(",")
        row[header.index(field)] = cell
        lines[2] = ",".join(row)
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(DispatchError, match=f"row 2: G2: {field} must be finite"):
            load_fleet_csv(p)

    def test_validation_voll_must_beat_costs(self):
        with pytest.raises(DispatchError, match="voll"):
            case_t1(10.0, 0.0, voll=25.0)

    @pytest.mark.parametrize(
        "field, value",
        [("voll", np.inf), ("voll", np.nan), ("emission_factor", np.inf),
         ("emission_factor", np.nan), ("emission_factor", -np.inf)],
    )
    def test_validation_non_finite_price_or_factor_named(self, field, value):
        kwargs = dict(demand=[10.0], forecast=[0.0], actual=[0.0],
                      fleet=default_fleet())
        with pytest.raises(DispatchError, match=f"^{field} .* must be finite"):
            DispatchCase(**kwargs, **{field: value})
