"""Dense two-phase simplex for small linear programs.

Problem form:

    minimize    c . x
    subject to  A_eq x  = b_eq
                A_ub x <= b_ub
                lower <= x <= upper

Every lower bound is finite and defaults to 0, as in
``scipy.optimize.linprog``; an upper bound is finite or +inf. The
dispatch programs bound every variable on both sides. The standard form
is a pair ``(a, b)`` of ``a y = b, y >= 0``: each variable is shifted by
its lower bound, ``y = x - lower >= 0``, each finite upper bound adds a
row ``y <= upper - lower`` and every inequality row gets a slack; the way
back is ``x = lower + y``. The solver always runs phase 1 with artificial
variables (with none, its first pricing finds it optimal, with no pivot),
then phase 2 with Dantzig pricing. After 50 consecutive degenerate pivots
it switches permanently to Bland's rule, which guarantees termination.
Basic values are re-solved against the original standard-form matrix at
the end so feasibility residuals do not inherit tableau roundoff. A
program with no constraint row at all takes the same path: its empty
tableau is optimal or unbounded at the first pricing.

Programs that share ``A_eq``, ``A_ub`` and the set of finite upper bounds
share the matrix, so a :class:`StandardForm` builds it once and a solve
computes only ``b``. The form holds the matrix, a copy of its ``A`` rows
laid out for gathering their columns, and the refine step's basis matrix,
which each solve through it overwrites. So its solves run one at a time,
and no array a solve returns is a view of it. ``solve_lp(lp)`` alone builds
a form for one solve.

Dispatch instances here are a few hundred rows, so a dense tableau is
adequate and easy to audit. A pivot updates only the rows with a nonzero
entry in the entering column, and in them only the columns where the
pivot row is nonzero. That is exact: every other entry ``t`` would have had
``f * (+-0)`` subtracted from it, which keeps its value and can change at
most the sign of a zero (``-0.0 - -0.0`` is ``+0.0``). The sign of a zero
moves no comparison, ``nonzero``, ``argmin`` or ``|.|`` argmax, makes no
later entry nonzero, and never reaches ``x``: the basic values are refined
from the untouched ``a`` and ``b``, or read from the rhs column and made
``+0.0`` by ``y + 0.0``. So the pivots, ``x``, the objective and the
iteration count are those of the full-width update. The ratio test
divides only the eligible rows, those whose entering-column entry exceeds
the pivot tolerance. The artificial columns stay in the tableau after
phase 1 but are not priced in phase 2; pivots still update them, which
touches no other column.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

_PIVOT_TOL = 1e-11
_TOL = 1e-9  # pricing, ratio-tie and degeneracy tolerance
_BLAND_STALL = 50


class LpError(ValueError):
    """Malformed linear program or solution."""


class IterationLimitError(RuntimeError):
    """The simplex hit its iteration cap before classifying the program."""


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LinearProgram:
    """Min-cost LP with equality rows, inequality rows, and box bounds."""

    c: np.ndarray
    A_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    A_ub: np.ndarray | None = None
    b_ub: np.ndarray | None = None
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None

    def __post_init__(self) -> None:
        c = np.atleast_1d(np.asarray(self.c, dtype=float))
        if c.ndim != 1 or c.size == 0:
            raise LpError("objective must be a non-empty vector")
        n = c.size
        if not np.isfinite(c).all():
            raise LpError("objective coefficients must be finite")

        def mat(a, b, label):
            if a is None or (hasattr(a, "size") and np.asarray(a).size == 0):
                return np.zeros((0, n)), np.zeros(0)
            a = np.atleast_2d(np.asarray(a, dtype=float))
            b = np.atleast_1d(np.asarray(b, dtype=float))
            if a.shape[1] != n:
                raise LpError(f"{label} rows have width {a.shape[1]}, need {n}")
            if b.shape != (a.shape[0],):
                raise LpError(f"{label} has {a.shape[0]} rows but {b.size} rhs values")
            if not (np.isfinite(a).all() and np.isfinite(b).all()):
                raise LpError(f"{label} coefficients must be finite")
            return a, b

        def bound(v, default):
            return np.full(n, default) if v is None else np.array(v, dtype=float)

        a_eq, b_eq = mat(self.A_eq, self.b_eq, "A_eq")
        a_ub, b_ub = mat(self.A_ub, self.b_ub, "A_ub")
        lower, upper = bound(self.lower, 0.0), bound(self.upper, np.inf)
        if lower.shape != (n,) or upper.shape != (n,):
            raise LpError("bounds must have one entry per variable")
        if np.isnan(lower).any() or np.isnan(upper).any():
            raise LpError("bounds must not be NaN")
        if not np.isfinite(lower).all():
            j = int(np.argmax(~np.isfinite(lower)))
            raise LpError(f"variable {j}: lower bound must be finite")
        if (lower > upper).any():
            j = int(np.argmax(lower > upper))
            raise LpError(f"variable {j}: lower bound {lower[j]} > upper {upper[j]}")
        for attr, val in (
            ("c", c),
            ("A_eq", a_eq),
            ("b_eq", b_eq),
            ("A_ub", a_ub),
            ("b_ub", b_ub),
            ("lower", lower),
            ("upper", upper),
        ):
            object.__setattr__(self, attr, val)

    @property
    def n_vars(self) -> int:
        return int(self.c.size)


@dataclass
class LpSolution:
    status: LpStatus
    x: np.ndarray | None
    objective: float | None
    iterations: int
    basis: np.ndarray | None = None  # final basic columns; None if rows dropped


@dataclass(frozen=True)
class Violation:
    kind: str  # "eq" | "ub" | "lower" | "upper" | "objective"
    index: int | None
    magnitude: float
    message: str


def check_solution(
    lp: LinearProgram, solution: LpSolution, tol: float = 1e-6
) -> list[Violation]:
    """Every constraint or bound violated beyond ``tol``, with magnitudes.

    An empty list certifies primal feasibility (and a consistent reported
    objective) at that tolerance.
    """
    if solution.x is None:
        raise LpError("solution carries no variable values")
    x = np.asarray(solution.x, dtype=float)
    if x.shape != (lp.n_vars,):
        raise LpError(f"solution has {x.size} values for {lp.n_vars} variables")
    eq = lp.A_eq @ x - lp.b_eq
    ub = lp.A_ub @ x - lp.b_ub
    low = lp.lower - x
    up = x - lp.upper
    # (kind, magnitude, shown value, message) per row or variable.
    checks = [
        ("eq", np.abs(eq), eq, "equality row {i} off by {v:.3e}"),
        ("ub", ub, ub, "inequality row {i} exceeded by {v:.3e}"),
        ("lower", low, low, "variable {i} below lower bound by {v:.3e}"),
        ("upper", up, up, "variable {i} above upper bound by {v:.3e}"),
    ]
    if solution.objective is not None:
        gap = np.array([abs(float(lp.c @ x) - solution.objective)])
        checks.append(("objective", gap, gap, "reported objective off by {v:.3e}"))
    # `not m <= tol` also counts a NaN magnitude, so a point or objective
    # that is not finite is never certified.
    return [
        Violation(
            kind,
            None if kind == "objective" else int(i),
            float(magnitude[i]),
            message.format(i=i, v=shown[i]),
        )
        for kind, magnitude, shown, message in checks
        for i in np.nonzero(~(magnitude <= tol))[0]
    ]


class StandardForm:
    """The matrix ``a`` of ``a y = b, y >= 0``, built once for all programs
    with these ``A_eq`` and ``A_ub`` and these ``boxed`` variables (finite
    upper bound), with a row-gather copy of its ``A`` columns for ``b`` and
    the refine step's basis buffer, which their solves reuse one at a time.
    ``y = x - lower`` comes first, then the slacks."""

    def __init__(self, A_eq: np.ndarray, A_ub: np.ndarray, boxed: np.ndarray):
        self.A_eq, self.A_ub, self.boxed = A_eq, A_ub, boxed
        # A variable with a finite upper bound keeps y <= upper - lower as a
        # row, after the A_ub rows; every inequality row gets its own slack.
        n, columns = boxed.size, np.nonzero(boxed)[0]
        n_eq, k = A_eq.shape[0], A_ub.shape[0]
        n_ub = k + columns.size
        a = np.zeros((n_eq + n_ub, n + n_ub))
        a[:n_eq, :n] = A_eq
        a[n_eq : n_eq + k, :n] = A_ub
        a[n_eq + k + np.arange(columns.size), columns] = 1.0
        a[n_eq + np.arange(n_ub), n + np.arange(n_ub)] = 1.0
        a.setflags(write=False)
        self.a = a
        self._columns = a[: n_eq + k, :n].T.copy()  # a column of A per row
        # The refine step gathers its basis columns here; reused, it faults
        # in no fresh pages (take's "clip" mode writes to it unbuffered).
        self._basis = np.empty((a.shape[0], a.shape[0]))

    def fits(self, lp: LinearProgram) -> bool:
        theirs = (lp.A_eq, lp.A_ub, np.isfinite(lp.upper))
        return all(map(np.array_equal, (self.A_eq, self.A_ub, self.boxed), theirs))

    def rhs(self, lp: LinearProgram) -> np.ndarray:
        """``b`` of ``lp``: its rows' rhs shifted by ``lower``, then the
        ``upper - lower`` of each boxed variable."""
        shifted = np.nonzero(lp.lower)[0]
        # Shifted one column at a time, in column order, as the rounding of
        # b depends on the order of the subtractions: an axis-0
        # subtract.reduce takes the rows from the first one in order.
        scaled = self._columns[shifted] * lp.lower[shifted, None]
        b_rows = np.concatenate([lp.b_eq, lp.b_ub])
        b_rows = np.subtract.reduce(np.vstack([b_rows, scaled]))
        return np.concatenate([b_rows, (lp.upper - lp.lower)[self.boxed]])


class _Simplex:
    """Iteration count and pricing state shared by the two phases."""

    def __init__(self, max_iters: int):
        self.max_iters = max_iters
        self.iterations = 0
        self.bland = False
        self._stall = 0

    def run(self, tableau: np.ndarray, basis: np.ndarray, n_cols: int) -> str:
        """Pivot until optimal or unbounded, pricing the first ``n_cols``
        columns only. Returns "optimal"/"unbounded"."""
        reduced, body, rhs = tableau[-1, :n_cols], tableau[:-1], tableau[:-1, -1]
        while True:
            if self.bland:
                negs = (reduced < -_TOL).nonzero()[0]
                if negs.size == 0:
                    return "optimal"
                enter = int(negs[0])
            else:
                enter = int(reduced.argmin())
                if reduced[enter] >= -_TOL:
                    return "optimal"
            col = body[:, enter]
            rows = (col > _PIVOT_TOL).nonzero()[0]
            if rows.size == 0:
                return "unbounded"
            ratios = rhs[rows] / col[rows]
            best = np.minimum.reduce(ratios)
            # Tie-break on the smallest basis index (Bland-style) so the
            # pivot sequence is deterministic.
            tied = rows[ratios <= best + _TOL * (1.0 + best)]
            leave = int(tied[basis[tied].argmin()])
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

    def _pivot(self, tableau: np.ndarray, row: int, col: int) -> None:
        prow = tableau[row]
        prow /= prow[col]
        factors = tableau[:, col].copy()
        factors[row] = 0.0
        rows, cols = factors.nonzero()[0], prow.nonzero()[0]
        tableau[rows[:, None], cols] -= factors[rows, None] * prow[cols]
        tableau[:, col] = 0.0
        tableau[row, col] = 1.0


def solve_lp(
    lp: LinearProgram, form: StandardForm | None = None, max_iters: int = 20000
) -> LpSolution:
    """Two-phase primal simplex.

    Optimal solutions satisfy the equality rows within ``_TOL``-scale
    residuals and the inequality rows and bounds up to the same order;
    exceeding ``max_iters`` raises :class:`IterationLimitError` instead of
    mislabeling the program. ``form`` is a :class:`StandardForm` built for
    programs like ``lp``; without one, one is built for this solve.
    """
    if form is None:
        form = StandardForm(lp.A_eq, lp.A_ub, np.isfinite(lp.upper))
    elif not form.fits(lp):
        raise LpError("the standard form was built for another program")
    a, b = form.a, form.rhs(lp)
    m, n_total = a.shape
    n_eq = lp.A_eq.shape[0]
    engine = _Simplex(max_iters)

    # Phase 1: an inequality row whose slack kept its +1 sign starts with
    # that slack basic; equality rows and sign-flipped rows get artificials.
    negated = b < 0
    art_rows = (negated | (np.arange(m) < n_eq)).nonzero()[0]
    n_art = art_rows.size
    basis = np.arange(m) + (lp.n_vars - n_eq)
    basis[art_rows] = n_total + np.arange(n_art)
    tableau = np.zeros((m + 1, n_total + n_art + 1))
    tableau[:m, :n_total] = a
    tableau[:m, -1] = b
    # Rows are sign-fixed so every rhs is nonnegative; the artificial 1s go
    # in afterwards, so every other artificial entry stays +0.0.
    tableau[:m, :n_total][negated] *= -1.0
    tableau[:m, -1][negated] *= -1.0
    tableau[art_rows, n_total + np.arange(n_art)] = 1.0

    # An axis-0 subtract.reduce takes the rows from the first one in order,
    # so each cost row below has the bits of a loop of `cost -= row`.
    cost = np.zeros(n_total + n_art + 1)
    cost[n_total : n_total + n_art] = 1.0
    tableau[-1] = np.subtract.reduce(np.vstack([cost, tableau[art_rows]]))
    outcome = engine.run(tableau, basis, n_total + n_art)
    if outcome != "optimal":
        raise LpError("phase 1 reported unbounded; this cannot happen")
    phase1_obj = -tableau[-1, -1]
    if phase1_obj > max(1e-7, _TOL * 100.0):
        return LpSolution(LpStatus.INFEASIBLE, None, None, engine.iterations)
    # Drive surviving artificials out of the basis or drop their rows.
    keep_rows = np.ones(m, dtype=bool)
    for i in (basis >= n_total).nonzero()[0]:
        # Pivot on the largest entry: a tiny one would scale the row by its
        # inverse and amplify roundoff across the tableau.
        magnitude = np.abs(tableau[i, :n_total])
        pivot_col = int(magnitude.argmax())
        if magnitude[pivot_col] > 1e-9:
            engine._pivot(tableau, i, pivot_col)
            basis[i] = pivot_col
        else:
            keep_rows[i] = False
    if not keep_rows.all():
        tableau = tableau[np.append(keep_rows, True)]
        basis = basis[keep_rows]
        m = basis.size

    # Phase 2 objective, reduced against the current basis, which holds no
    # artificial column; those stay in the tableau but are not priced.
    cost = np.zeros(tableau.shape[1])
    cost[: lp.n_vars] = lp.c
    c_basic = cost[basis]
    priced = c_basic.nonzero()[0]
    tableau[-1] = np.subtract.reduce(
        np.vstack([cost, c_basic[priced, None] * tableau[priced]])
    )
    outcome = engine.run(tableau, basis, n_total)
    if outcome == "unbounded":
        return LpSolution(LpStatus.UNBOUNDED, None, None, engine.iterations)

    y = np.zeros(n_total)
    y[basis] = tableau[:m, -1]
    # Refine basic values against the untouched standard-form system to
    # shed accumulated pivot roundoff.
    if m == a.shape[0]:
        try:
            basis_mat = np.take(a, basis, axis=1, out=form._basis, mode="clip")
            refined = np.linalg.solve(basis_mat, b)
            scale = 1.0 + np.abs(b).max(initial=0.0)
            residual = np.abs(basis_mat @ refined - b).max(initial=0.0)
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
        LpStatus.OPTIMAL, x, float(lp.c @ x), engine.iterations,
        basis if m == a.shape[0] else None,
    )
