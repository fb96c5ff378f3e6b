import numpy as np
import pytest

from oracles import (
    enumerate_vertices,
    random_box_lp,
    random_dispatch_case,
    reference_solve_lp,
)
from pvdispatch import dispatch
from pvdispatch.dispatch import solve_da, solve_rt
from pvdispatch.lp import (
    IterationLimitError,
    LinearProgram,
    LpError,
    LpSolution,
    LpStatus,
    _Simplex,
    check_solution,
    solve_lp,
)


class TestBasics:
    def test_min_x_above_three(self):
        sol = solve_lp(LinearProgram(c=[1.0], lower=[3.0]))
        assert sol.status is LpStatus.OPTIMAL
        assert sol.x[0] == pytest.approx(3.0, abs=1e-9)
        assert sol.objective == pytest.approx(3.0, abs=1e-9)

    def test_conflicting_rows_infeasible(self):
        lp = LinearProgram(
            c=[1.0], A_ub=[[-1.0], [1.0]], b_ub=[-3.0, 2.0]
        )
        assert solve_lp(lp).status is LpStatus.INFEASIBLE

    def test_unbounded_below(self):
        sol = solve_lp(LinearProgram(c=[-1.0], lower=[0.0]))
        assert sol.status is LpStatus.UNBOUNDED

    def test_negative_optimum_set_by_row(self):
        # min x with x >= -10 as a bound and x >= -4 expressed as a row.
        lp = LinearProgram(c=[1.0], A_ub=[[-1.0]], b_ub=[4.0], lower=[-10.0])
        sol = solve_lp(lp)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.x[0] == pytest.approx(-4.0, abs=1e-9)

    def test_optimum_at_upper_bound(self):
        # The default lower bound is 0; the minimum of -x sits at the upper.
        lp = LinearProgram(c=[-1.0], upper=[7.0])
        sol = solve_lp(lp)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.x[0] == pytest.approx(7.0)

    def test_omitted_lower_bound_is_zero(self):
        lp = LinearProgram(c=[1.0, -1.0], upper=[np.inf, 3.0])
        assert lp.lower.tobytes() == np.zeros(2).tobytes()
        sol = solve_lp(lp)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.x.tolist() == [0.0, 3.0]

    @pytest.mark.parametrize("lower", [-np.inf, np.inf])
    def test_infinite_lower_bound_rejected(self, lower):
        with pytest.raises(LpError, match="^variable 1: lower bound must be finite$"):
            LinearProgram(c=[1.0, 1.0], lower=[0.0, lower])

    def test_negative_zero_lower_bound_gives_positive_zero(self):
        # The drive-out pivot on row 0 is -1, so x0 ends basic at 0 / -1 =
        # -0.0; row 1 is then dropped as redundant, which skips refinement.
        lp = LinearProgram(
            c=[1.0, 1.0],
            A_eq=[[-1.0, -1.0], [-2.0, -2.0]],
            b_eq=[0.0, 0.0],
            lower=[-0.0, -0.0],
            upper=[4.0, 4.0],
        )
        sol = solve_lp(lp)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.x.tobytes() == np.zeros(2).tobytes()

    # No constraint rows at all; test_optimum_at_upper_bound covers a
    # finite upper bound, which adds a bound row.
    @pytest.mark.parametrize(
        "c, lower, upper, status, x",
        [
            pytest.param(
                2.0, -3.0, np.inf, LpStatus.OPTIMAL, -3.0, id="shifted-cost-up"
            ),
            pytest.param(
                -2.0, -1.0, np.inf, LpStatus.UNBOUNDED, None, id="cost-down"
            ),
            # A cost inside the pricing tolerance counts as zero.
            pytest.param(
                -1e-10, 0.0, np.inf, LpStatus.OPTIMAL, 0.0, id="cost-within-tol"
            ),
        ],
    )
    def test_constraint_free(self, c, lower, upper, status, x):
        sol = solve_lp(LinearProgram(c=[c], lower=[lower], upper=[upper]))
        assert sol.status is status
        assert sol.iterations == 0
        if x is None:
            assert sol.x is None
        else:
            assert sol.x[0] == x
            assert sol.objective == c * x

    def test_malformed_rejected(self):
        with pytest.raises(LpError):
            LinearProgram(c=[1.0, 2.0], A_eq=[[1.0]], b_eq=[1.0])
        with pytest.raises(LpError):
            LinearProgram(c=[np.nan])
        with pytest.raises(LpError):
            LinearProgram(c=[1.0], lower=[2.0], upper=[1.0])

    def test_iteration_limit_distinct_error(self):
        rng = np.random.Generator(np.random.PCG64(0))
        lp = random_box_lp(rng)
        with pytest.raises(IterationLimitError):
            solve_lp(lp, max_iters=1)


class TestCheckSolution:
    def test_feasible_point_clean(self):
        lp = LinearProgram(c=[1.0], A_ub=[[1.0]], b_ub=[4.0], lower=[0.0])
        sol = LpSolution(LpStatus.OPTIMAL, np.array([2.0]), 2.0, 0)
        assert check_solution(lp, sol) == []

    def test_bound_violation_magnitude(self):
        lp = LinearProgram(c=[1.0], lower=[3.0])
        sol = LpSolution(LpStatus.OPTIMAL, np.array([2.0]), 2.0, 0)
        violations = check_solution(lp, sol)
        assert len(violations) == 1
        assert violations[0].kind == "lower"
        assert violations[0].magnitude == pytest.approx(1.0)

    def test_objective_mismatch_flagged(self):
        lp = LinearProgram(c=[2.0], lower=[0.0])
        sol = LpSolution(LpStatus.OPTIMAL, np.array([1.0]), 99.0, 0)
        kinds = {v.kind for v in check_solution(lp, sol)}
        assert "objective" in kinds

    def test_nan_point_flagged(self):
        lp = LinearProgram(c=[1.0], A_ub=[[1.0]], b_ub=[4.0], lower=[0.0])
        sol = LpSolution(LpStatus.OPTIMAL, np.array([np.nan]), None, 0)
        kinds = {v.kind for v in check_solution(lp, sol)}
        assert kinds == {"ub", "lower", "upper"}

    def test_nan_objective_flagged(self):
        lp = LinearProgram(c=[1.0], A_ub=[[1.0]], b_ub=[4.0], lower=[0.0])
        sol = LpSolution(LpStatus.OPTIMAL, np.array([2.0]), np.nan, 0)
        assert [v.kind for v in check_solution(lp, sol)] == ["objective"]

    def test_dimension_mismatch(self):
        lp = LinearProgram(c=[1.0, 1.0], lower=[0.0, 0.0])
        sol = LpSolution(LpStatus.OPTIMAL, np.array([1.0]), 1.0, 0)
        with pytest.raises(LpError):
            check_solution(lp, sol)


class TestVertexOracle:
    def test_agreement_on_random_boxed_lps(self):
        rng = np.random.Generator(np.random.PCG64(2024))
        n_optimal = n_infeasible = 0
        for _ in range(120):
            lp = random_box_lp(rng)
            status, best, _ = enumerate_vertices(lp)
            sol = solve_lp(lp)
            if status == "infeasible":
                assert sol.status is LpStatus.INFEASIBLE
                n_infeasible += 1
            else:
                assert sol.status is LpStatus.OPTIMAL
                assert sol.objective == pytest.approx(best, abs=1e-6)
                assert check_solution(lp, sol, tol=1e-6) == []
                n_optimal += 1
        # The sampler must exercise both outcomes for this to mean much.
        assert n_optimal >= 60
        assert n_infeasible >= 5

    def test_every_optimal_passes_feasibility_audit(self):
        rng = np.random.Generator(np.random.PCG64(77))
        for _ in range(60):
            lp = random_box_lp(rng)
            sol = solve_lp(lp)
            if sol.status is LpStatus.OPTIMAL:
                assert check_solution(lp, sol, tol=1e-6) == []

    def test_objective_scaling_invariance(self):
        rng = np.random.Generator(np.random.PCG64(5))
        checked = 0
        while checked < 25:
            lp = random_box_lp(rng)
            sol = solve_lp(lp)
            if sol.status is not LpStatus.OPTIMAL:
                continue
            lam = float(rng.uniform(0.5, 6.0))
            scaled = LinearProgram(
                c=lam * lp.c,
                A_eq=lp.A_eq if lp.A_eq.size else None,
                b_eq=lp.b_eq if lp.b_eq.size else None,
                A_ub=lp.A_ub if lp.A_ub.size else None,
                b_ub=lp.b_ub if lp.b_ub.size else None,
                lower=lp.lower,
                upper=lp.upper,
            )
            sol2 = solve_lp(scaled)
            assert sol2.status is LpStatus.OPTIMAL
            assert sol2.objective == pytest.approx(
                lam * sol.objective, rel=1e-9, abs=1e-9
            )
            np.testing.assert_allclose(sol2.x, sol.x, atol=1e-9)
            checked += 1

    def test_determinism_same_pivots(self):
        rng = np.random.Generator(np.random.PCG64(9))
        for _ in range(10):
            lp = random_box_lp(rng)
            s1 = solve_lp(lp)
            s2 = solve_lp(lp)
            assert s1.status == s2.status
            assert s1.iterations == s2.iterations
            if s1.x is not None:
                np.testing.assert_array_equal(s1.x, s2.x)


class TestSmallCoefficientRows:
    def test_match_highs_where_the_vertex_oracle_cannot(self):
        """An equality row with a 1e-6 entry is below the vertex oracle's
        feasibility tolerance (see :func:`oracles.enumerate_vertices`), so
        these programs are checked against HiGHS instead."""
        linprog = pytest.importorskip("scipy.optimize").linprog
        rng = np.random.Generator(np.random.PCG64(1906))
        outcomes = {LpStatus.OPTIMAL: 0, LpStatus.INFEASIBLE: 0}
        for _ in range(300):
            base = random_box_lp(rng)
            n = base.n_vars
            row = rng.uniform(-1.0, 1.0, n)
            tiny = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0) * 1e-6
            row[rng.integers(n)] = tiny
            # The new row passes through a point inside the box.
            rhs = row @ rng.uniform(base.lower, base.upper)
            lp = LinearProgram(
                c=base.c,
                A_eq=np.vstack([base.A_eq, row]),
                b_eq=np.append(base.b_eq, rhs),
                A_ub=base.A_ub if base.A_ub.size else None,
                b_ub=base.b_ub if base.b_ub.size else None,
                lower=base.lower,
                upper=base.upper,
            )
            sol = solve_lp(lp)
            res = linprog(
                lp.c, A_eq=lp.A_eq, b_eq=lp.b_eq,
                A_ub=lp.A_ub if lp.A_ub.size else None,
                b_ub=lp.b_ub if lp.b_ub.size else None,
                bounds=np.column_stack([lp.lower, lp.upper]), method="highs",
            )
            assert res.status in (0, 2), res.message
            expected = LpStatus.OPTIMAL if res.status == 0 else LpStatus.INFEASIBLE
            assert sol.status is expected
            outcomes[expected] += 1
            if expected is LpStatus.OPTIMAL:
                assert sol.objective == pytest.approx(res.fun, rel=1e-6)
        # The sample must reach both outcomes for the agreement to mean much.
        assert min(outcomes.values()) >= 50, outcomes


class TestDegenerateAndStress:
    def test_degenerate_vertex(self):
        # Several constraints meet at the optimum; must still terminate.
        lp = LinearProgram(
            c=[-1.0, -1.0],
            A_ub=[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
            b_ub=[1.0, 1.0, 2.0],
            lower=[0.0, 0.0],
        )
        sol = solve_lp(lp)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective == pytest.approx(-2.0, abs=1e-9)

    def test_redundant_equalities(self):
        lp = LinearProgram(
            c=[1.0, 1.0],
            A_eq=[[1.0, 1.0], [2.0, 2.0]],
            b_eq=[2.0, 4.0],
            lower=[0.0, 0.0],
        )
        sol = solve_lp(lp)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective == pytest.approx(2.0, abs=1e-9)

    def test_fixed_variable_bounds(self):
        lp = LinearProgram(
            c=[1.0, 1.0],
            A_eq=[[1.0, 1.0]],
            b_eq=[5.0],
            lower=[2.0, 0.0],
            upper=[2.0, 10.0],
        )
        sol = solve_lp(lp)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.x[0] == pytest.approx(2.0, abs=1e-9)
        assert sol.x[1] == pytest.approx(3.0, abs=1e-9)

    def test_negative_rhs_rows(self):
        lp = LinearProgram(
            c=[1.0],
            A_ub=[[-1.0]],
            b_ub=[-4.0],  # x >= 4
            lower=[0.0],
        )
        sol = solve_lp(lp)
        assert sol.x[0] == pytest.approx(4.0, abs=1e-9)

    def test_drive_out_pivots_on_largest_entry(self, monkeypatch):
        # Phase 1 ends with row 0's artificial basic at zero. The row's
        # first structural entry is tiny, a later one large: pivoting on
        # the tiny one scales the row by 1e6 and feeds a 5e6 pivot later.
        pivots = []
        pivot = _Simplex._pivot

        def spy(self, tableau, row, col):
            pivots.append(float(tableau[row, col]))
            pivot(self, tableau, row, col)

        monkeypatch.setattr(_Simplex, "_pivot", spy)
        lp = LinearProgram(
            c=[2.0, -1.0, 1.0],
            A_eq=[[-1e-6, -5.0, 0.0], [1.0, 1.0, 1.0]],
            b_eq=[0.0, 3.0],
            lower=[0.0, 0.0, 0.0],
            upper=[4.0, 4.0, 4.0],
        )
        sol = solve_lp(lp)
        assert sol.status is LpStatus.OPTIMAL
        assert check_solution(lp, sol, tol=1e-9) == []
        status, best, _ = enumerate_vertices(lp)
        assert status == "optimal"
        assert sol.objective == pytest.approx(best, abs=1e-9)
        assert pivots == [1.0, -5.0]


def _dense_pivot(tableau: np.ndarray, row: int, col: int) -> None:
    """Reference pivot: the update applied to every row of the tableau."""
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= np.outer(factors, tableau[row])
    tableau[:, col] = 0.0
    tableau[row, col] = 1.0


class TestPivot:
    def test_sparse_update_equals_dense_reference(self):
        """The pivot subtracts only over the pivot row's nonzero columns. In
        a zero column the dense update changes at most the sign of a zero
        (-0.0 - -0.0 is +0.0); the sparse one leaves it bit for bit."""
        rng = np.random.Generator(np.random.PCG64(31))
        signs_differ = 0
        for _ in range(100):
            m, n = int(rng.integers(2, 60)), int(rng.integers(2, 80))
            tableau = rng.normal(size=(m, n))
            tableau[rng.random((m, n)) < 0.5] = 0.0
            tableau[rng.random((m, n)) < 0.2] = -0.0
            row, col = int(rng.integers(m)), int(rng.integers(n))
            tableau[:, col] *= rng.random(m) < 0.1  # mostly zeros
            tableau[row, col] = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
            before = tableau.copy()
            expected = tableau.copy()
            _dense_pivot(expected, row, col)
            _Simplex(1)._pivot(tableau, row, col)
            assert np.array_equal(tableau, expected)
            others, zero = np.arange(m) != row, before[row] == 0.0
            untouched = before[others][:, zero]
            assert tableau[others][:, zero].tobytes() == untouched.tobytes()
            signs_differ += tableau.tobytes() != expected.tobytes()
        assert signs_differ > 0  # the -0.0 entries reach the case

    def test_dispatch_day_matches_dense_reference(self, monkeypatch):
        case = random_dispatch_case(np.random.Generator(np.random.PCG64(8)))
        da = solve_da(case)
        rt = solve_rt(case, da)
        monkeypatch.setattr(_Simplex, "_pivot", staticmethod(_dense_pivot))
        da_ref = solve_da(case)
        rt_ref = solve_rt(case, da_ref)
        assert da.iterations == da_ref.iterations > 0
        assert rt.iterations == rt_ref.iterations > 0
        assert da.objective == da_ref.objective
        assert rt.objective == rt_ref.objective
        assert np.array_equal(da.p, da_ref.p)
        assert np.array_equal(rt.delta, rt_ref.delta)


def _solution_bytes(sol: LpSolution) -> tuple:
    x = None if sol.x is None else sol.x.tobytes()
    return sol.status, sol.iterations, sol.objective, x


# The LPs of TestBasics and TestDegenerateAndStress that reach a sign-flipped
# row, a redundant equality row and a drive-out pivot.
NAMED_LPS = {
    "negative-rhs": LinearProgram(c=[1.0], A_ub=[[-1.0]], b_ub=[-4.0]),
    "redundant-equality": LinearProgram(
        c=[1.0, 1.0], A_eq=[[1.0, 1.0], [2.0, 2.0]], b_eq=[2.0, 4.0]
    ),
    "drive-out": LinearProgram(
        c=[2.0, -1.0, 1.0],
        A_eq=[[-1e-6, -5.0, 0.0], [1.0, 1.0, 1.0]],
        b_eq=[0.0, 3.0],
        upper=[4.0, 4.0, 4.0],
    ),
    "drive-out-negative-zero": LinearProgram(
        c=[1.0, 1.0],
        A_eq=[[-1.0, -1.0], [-2.0, -2.0]],
        b_eq=[0.0, 0.0],
        lower=[-0.0, -0.0],
        upper=[4.0, 4.0],
    ),
}

# Beale's (1955) cycling example: at the degenerate origin, Dantzig pricing
# with ratio ties broken on the smallest basis index returns to its first
# basis every six pivots, so only the switch to Bland's rule ends the solve.
# Beale's x6 <= 1 row is the third variable's upper bound here; the bounds of
# 10 on the others never bind and let the vertex oracle enumerate the program.
_BEALE_C = [-0.75, 20.0, -0.5, 6.0]
_BEALE_A = [[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0]]
BEALE_LPS = {
    "beale": LinearProgram(
        c=_BEALE_C, A_ub=_BEALE_A, b_ub=[0.0, 0.0], upper=[10.0, 10.0, 1.0, 10.0]
    ),
    # A fifth variable fixed by an equality row needs phase 1, so the
    # artificial column is still in the tableau when phase 2 stalls. Its
    # cost of 1 gives that column a negative reduced cost there, which
    # Bland's scan must not price.
    "beale-after-phase-1": LinearProgram(
        c=_BEALE_C + [1.0],
        A_eq=[[0.0, 0.0, 0.0, 0.0, 1.0]],
        b_eq=[1.0],
        A_ub=[row + [0.0] for row in _BEALE_A],
        b_ub=[0.0, 0.0],
        upper=[10.0, 10.0, 1.0, 10.0, 10.0],
    ),
}


class TestReferenceSimplex:
    """The tuned simplex takes the pivots and gives the bytes of the one kept
    verbatim in ``oracles.reference_solve_lp``."""

    def test_random_box_lps_byte_identical(self):
        rng = np.random.Generator(np.random.PCG64(123))
        lps = [random_box_lp(rng) for _ in range(2000)] + list(NAMED_LPS.values())
        statuses = set()
        for lp in lps:
            sol = solve_lp(lp)
            assert _solution_bytes(sol) == _solution_bytes(reference_solve_lp(lp))
            statuses.add(sol.status)
        assert statuses == {LpStatus.OPTIMAL, LpStatus.INFEASIBLE}

    def test_dispatch_days_byte_identical(self, monkeypatch):
        solved = []

        def record(lp, form):
            solved.append((lp, solve_lp(lp, form)))
            return solved[-1][1]

        monkeypatch.setattr(dispatch, "solve_lp", record)
        rng = np.random.Generator(np.random.PCG64(7))
        for _ in range(200):
            case = random_dispatch_case(rng)
            solve_rt(case, solve_da(case))
        assert len(solved) == 400
        for lp, sol in solved:
            assert sol.iterations > 0
            assert _solution_bytes(sol) == _solution_bytes(reference_solve_lp(lp))

    @pytest.mark.parametrize("name", BEALE_LPS)
    def test_bland_rule_ends_a_cycle(self, monkeypatch, name):
        # Random box LPs and dispatch days never stall for _BLAND_STALL
        # pivots, so this cycling program is the one that reaches Bland's
        # rule, in phase 2.
        bland = []
        run = _Simplex.run

        def spy(self, *args):
            outcome = run(self, *args)
            bland.append(self.bland)
            return outcome

        monkeypatch.setattr(_Simplex, "run", spy)
        lp = BEALE_LPS[name]
        sol = solve_lp(lp)
        assert bland[-1] and not any(bland[:-1])
        assert sol.status is LpStatus.OPTIMAL
        status, best, _ = enumerate_vertices(lp)
        assert status == "optimal"
        assert sol.objective == pytest.approx(best, abs=1e-9)
        assert _solution_bytes(sol) == _solution_bytes(reference_solve_lp(lp))
