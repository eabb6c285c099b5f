"""Linear programming by the simplex method, in two forms.

Internal to effectcompat: only SolverFailure is part of the public API.
A problem has one of two forms, minimize c . y subject to rows . y = rhs or
to rows . y <= rhs, with y >= 0, and whether it has a start basis names
which: every row of a problem with one is an equality, every row of a
problem without one a <= row.  A caller with free variables poses each as
the difference of two nonnegative ones.  An LpProblem holds float64
arrays as its caller built them, with no copy and no check of their shapes
or of the start's indices: the caller builds them well formed and never
writes to them afterwards, so the witness duals share their constraint rows
across pairs.  solve_lp and check_feasible pick the method from the form:

* With a start, every row an equality (the duals of the witness LPs, r+2
  rows over 4k vertex weights): the revised simplex method from that
  feasible start basis, one column per row, with no phase one.  The
  start is usable when B = rows[:, start] is nonsingular (1-norm
  condition number below 1/_PIVOT_EPS) and B^-1 rhs >= -eps_feas; the
  pivots start from that inverse and point, and check_feasible answers
  True with no pivot.  An unusable start raises LpInputError naming the
  failed condition, before any pivot.  The basis is kept as a list of
  columns with an explicit inverse B^-1 beside it.
  Each pivot updates B^-1 and the basic point x = B^-1 b by one rank-one
  (eta) step, and every _REFACTOR_INTERVAL pivots both are recomputed from
  the basis columns, so round-off cannot build up over a long solve.  When
  the reduced costs priced on that inverse show no improving column, they
  are priced once more with multipliers solved afresh on the final basis;
  if those find one, the pivots resume from a refactored inverse, on the
  same budget and pricing rule (no count of degenerate pivots is kept).
  The point and the multipliers returned are read out with two fresh
  numpy.linalg.solve calls on the final basis, so the updates never reach
  them.  Pricing is Dantzig's (most negative reduced cost, smallest index on
  ties).  Should that run fail (unbounded, a singular basis or the pivot
  budget), the solve starts over from the start basis by Bland's rule,
  which cannot cycle (Bland, Math. Oper. Res. 1977), on a fresh budget.
  Pricing and the update run in numpy, the reduced costs written into one
  buffer that each solve allocates once; the ratio test runs on Python
  floats read out of x and the entering column, since on m entries numpy's
  per-call cost outweighs the arithmetic.
  The products on that path are written ndarray.dot: the same BLAS calls
  as @, at about half its per-call cost on these small operands.  The
  result carries the simplex multipliers pi of the rows, which solve the
  problem's own dual: c - rows^T pi >= 0 at the optimum.
* Without a start, every row a <= row: a dense tableau on Bland's rule,
  two phases from the slack basis (an artificial on each row with rhs < 0),
  the leaving row taken by the revised method's ratio test (_ratio_test,
  Bland mode) and every pivot rewriting the whole tableau by its
  elimination step (_eliminate).  The package poses only one such LP, the
  lambda primal of a space with at most 4 vertices (at most 16 rows); no
  size limit.

solve_lp returns an optimum or raises SolverFailure naming the cause: an
infeasible or unbounded problem, an exhausted pivot budget, or a point that
fails its check.  iterations counts the simplex pivots of every phase or run
taken; on the dense tableau, pivots that drive artificials out of the basis
after phase one are not counted.  Every returned point is checked against
every row and bound within eps_feas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tolerances import DEFAULT_TOLERANCES, SolverTolerances

LE = "<="
EQ = "="

# Entries below _PIVOT_EPS never serve as pivots.  It sits well under the
# user-facing tolerances for the well-scaled problems this solver is built for.
_PIVOT_EPS = 1e-11

# Both methods stop when no reduced cost is below -_REVISED_ENTER_EPS.  The
# revised method's reduced costs come from B^-1, which the refactor below
# keeps within a few ulps of a fresh inverse: at 1e-10 the least slack of a
# polygon-16 witness system came out 0, not 1.9e-11 (its HiGHS value).
_REVISED_ENTER_EPS = 1e-12

# The revised method updates B^-1 by one eta step per pivot and inverts the
# basis afresh after this many updates.  The drift is small either way: over
# 60 updates on hypercube-12 lambda duals, B times the updated B^-1 stayed
# within 3e-14 of the identity; the interval bounds it on longer solves.
_REFACTOR_INTERVAL = 32

# Pivot budget is ITERATION_CAP_FACTOR * (m + n) per pricing rule, so a
# Dantzig run that cycles spends all of it before the retry by Bland's rule.
# The witness duals take at most 0.16 pivots per row plus column (405 on the
# 82 x 2,500 dual of a four-fold product of polygon-5); the dense tableau has
# at most 16 rows.  At 50, the 9 x 512 lambda dual of hypercube-7 gets 26,050.
ITERATION_CAP_FACTOR = 50


class LpError(Exception):
    """Base class for solver errors."""


class LpInputError(LpError):
    """A start basis the solver refuses: singular, ill-conditioned or infeasible."""


class SolverFailure(LpError):
    """The solver ended without an optimum; the message names the cause: an
    infeasible or unbounded problem, the pivot budget, or a failed check."""


@dataclass(frozen=True)
class LpProblem:
    """minimize objective . y subject to rows . y = rhs when start is given,
    else rows . y <= rhs, with y >= 0.

    start names the feasible basis the revised method starts from, one
    distinct column index per row.  Float64 arrays are held with no copy and
    no check: the caller builds them well formed and never writes to them.
    """

    objective: np.ndarray
    rows: np.ndarray
    rhs: np.ndarray
    start: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        for name in ("objective", "rows", "rhs"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))

    @property
    def n_variables(self) -> int:
        return self.objective.size

    @property
    def n_constraints(self) -> int:
        return self.rows.shape[0]

    @property
    def relations(self) -> tuple[str, ...]:
        # perfbench.tracing.tableau_shape reads per-row relations, as it
        # reads bounds below; the start names them.
        return (LE if self.start is None else EQ,) * self.n_constraints

    @property
    def bounds(self) -> tuple[tuple[float, None], ...]:
        # perfbench.tracing.tableau_shape reads per-variable bounds to count
        # tableau columns; every variable is nonnegative.
        return ((0.0, None),) * self.n_variables


@dataclass(frozen=True)
class LpResult:
    """An optimum: its value, its point and the simplex pivots taken.

    multipliers holds the simplex multipliers pi of the rows at the optimum,
    with objective - rows^T pi >= 0 and rhs . pi equal to value up to
    round-off.  Only the revised method (a problem with a start) sets them.
    """

    value: float
    point: np.ndarray
    iterations: int
    multipliers: np.ndarray | None = None


class _Budget:
    def __init__(self, problem: LpProblem):
        self.cap = ITERATION_CAP_FACTOR * (problem.n_constraints + problem.n_variables)
        self.used = 0

    def spend(self) -> None:
        if self.used == self.cap:
            raise SolverFailure(
                f"pivot budget exhausted ({self.cap} iterations); "
                "the problem status is undetermined"
            )
        self.used += 1


def _eliminate(T: np.ndarray, column: np.ndarray, row: int) -> None:
    """Gauss-Jordan step in place: T[row] /= column[row], then T[i] -= column[i] * T[row]
    for every i != row.  column must not be a view of T; column[row] is set to 0."""
    pivot_row = T[row]
    pivot_row /= column[row]
    column[row] = 0.0
    T -= column[:, None] * pivot_row


def _pivot(T: np.ndarray, basis: list[int], row: int, col: int) -> None:
    _eliminate(T, T[:, col].copy(), row)
    basis[row] = col


def _install_cost_row(T: np.ndarray, basis: list[int], cost: np.ndarray) -> None:
    T[-1, :-1] = cost
    T[-1, -1] = 0.0
    for i, bv in enumerate(basis):
        coef = T[-1, bv]
        if coef != 0.0:
            T[-1] -= coef * T[i]


def _run_simplex(T: np.ndarray, basis: list[int], budget: _Budget) -> None:
    """Minimize the installed cost row in place by Bland's rule; SolverFailure
    when unbounded."""
    m = T.shape[0] - 1
    while True:
        improving = np.flatnonzero(T[-1, :-1] < -_REVISED_ENTER_EPS)
        if improving.size == 0:
            return
        col = int(improving[0])  # smallest improving index
        row = _ratio_test(T[:m, -1].tolist(), T[:m, col].tolist(), basis, True)
        if row is None:
            raise SolverFailure(f"problem is unbounded: no row limits entering column {col}")
        budget.spend()
        _pivot(T, basis, row, col)


def _build_tableau(A: np.ndarray, b: np.ndarray):
    """The tableau of A y <= b: a slack on each row, except that a row with
    b < 0 is negated and takes a surplus and an artificial.  Columns run
    structural, slacks, surpluses, artificials; returns (T, basis, art_start)."""
    m, p = A.shape
    flip = b < 0.0  # make the right-hand side nonnegative
    kept, negated = np.flatnonzero(~flip), np.flatnonzero(flip)
    art_start = p + m  # one slack or surplus per row
    T = np.zeros((m + 1, art_start + negated.size + 1))
    T[:m, :p] = np.where(flip[:, None], -A, A)
    T[:m, -1] = np.where(flip, -b, b)
    T[kept, p + np.arange(kept.size)] = 1.0
    T[negated, p + kept.size + np.arange(negated.size)] = -1.0
    T[negated, art_start + np.arange(negated.size)] = 1.0
    basis = np.empty(m, dtype=int)
    basis[kept] = p + np.arange(kept.size)
    basis[negated] = art_start + np.arange(negated.size)
    return T, basis.tolist(), art_start


def _drop_artificials(T: np.ndarray, basis: list[int], art_start: int):
    """Pivot artificials out of the basis, drop dependent rows and columns."""
    m = T.shape[0] - 1
    drop_rows = []
    for i in range(m):
        if basis[i] >= art_start:
            candidates = np.flatnonzero(np.abs(T[i, :art_start]) > _PIVOT_EPS)
            if candidates.size:
                _pivot(T, basis, i, int(candidates[0]))
            else:
                drop_rows.append(i)  # all-zero structural row: dependent
    T = np.delete(T, drop_rows, axis=0)
    basis = [bv for i, bv in enumerate(basis) if i not in drop_rows]
    return T[:, list(range(art_start)) + [T.shape[1] - 1]], basis


def _verify_solution(problem: LpProblem, y: np.ndarray, eps: float) -> None:
    """Raise SolverFailure naming the first row (|residual| on an equality,
    the signed residual on a <= row) or bound that y breaks by more than eps;
    one numpy pass, O(rows.size)."""
    residual = problem.rows.dot(y) - problem.rhs
    bad = (residual if problem.start is None else np.abs(residual)) > eps
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise SolverFailure(f"returned point violates constraint {i} "
                            f"({problem.relations[i]} residual {residual[i]:.3e})")
    negative = y < -eps
    if negative.any():
        raise SolverFailure("returned point violates lower bound on variable "
                            f"{np.flatnonzero(negative)[0]}")


def _solve(B: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(B, rhs)
    except np.linalg.LinAlgError as exc:
        raise SolverFailure(f"singular {B.shape[0]} x {B.shape[1]} basis: {exc}") from exc


def _ratio_test(x: list[float], column: list[float], basis: list[int],
                bland: bool) -> int | None:
    """The leaving row for the entering column d (B^-1 a, or a column of the
    dense tableau) at the point x, on Python floats; None when no entry of d
    exceeds _PIVOT_EPS (unbounded).

    The ratios max(x_i, 0) / d_i over d_i > _PIVOT_EPS tie within 1e-12 *
    max(1, least); among the tied rows Dantzig takes the largest pivot, the
    first on equal pivots, which keeps B well conditioned, and Bland the
    row whose basic column comes first.  The first loop finds the least
    ratio and the second applies the tie rule: which rows tie depends on
    the least ratio, so one loop could not decide it.
    """
    best = math.inf
    for xi, di in zip(x, column):
        if di > _PIVOT_EPS:
            ratio = (0.0 if xi < 0.0 else xi) / di
            if ratio < best:
                best = ratio
    if best == math.inf:
        return None
    slack = 1e-12 * (best if best > 1.0 else 1.0)
    bound = best + slack
    row = -1
    for i, (xi, di) in enumerate(zip(x, column)):
        if di > _PIVOT_EPS and (0.0 if xi < 0.0 else xi) / di <= bound and (
                row < 0 or (basis[i] < basis[row] if bland else di > column[row])):
            row = i
    return row


def _refactor(T: np.ndarray, A: np.ndarray, b: np.ndarray, basis: list[int]) -> None:
    """T = [B^-1 | B^-1 b] computed afresh from the basis columns, in place."""
    m = T.shape[0]
    T[:, :m] = _solve(A.take(basis, axis=1), np.eye(m))
    T[:, m] = T[:, :m] @ b


def _revised_simplex(A: np.ndarray, b: np.ndarray, cost: np.ndarray, basis: list[int],
                     budget: _Budget, start: tuple[np.ndarray, np.ndarray],
                     bland: bool) -> np.ndarray:
    """Minimize cost . y over A y = b, y >= 0 from a feasible basis, in place,
    by Dantzig pricing or, if bland, Bland's rule throughout; the simplex
    multipliers of the final basis, or SolverFailure when unbounded.

    start is (B^-1, B^-1 b) of the given basis.  The loop keeps
    T = [B^-1 | B^-1 b]: a pivot on row r and entering column a = A[:, col],
    with d = B^-1 a, divides row r of T by d_r and subtracts d_i times that
    row from every other row i (_eliminate), which gives the new basis's
    inverse and point.  After _REFACTOR_INTERVAL such updates T is
    recomputed from the basis columns.  The reduced costs are priced into
    one buffer per solve, and the ratio test runs on x and d as Python
    floats (_ratio_test).  The loop exits only when multipliers solved
    afresh on the basis price no column below -_REVISED_ENTER_EPS either.
    """
    m = A.shape[0]
    T = np.empty((m, m + 1))
    T[:, :m], T[:, m] = start
    inv, x = T[:, :m], T[:, m]
    basic = np.array(basis, dtype=int)  # pricing indexes with it, not with the list
    basic_cost = cost[basic]
    reduced = np.empty(cost.size)  # every pricing round writes into it
    updates = 0
    while True:
        basic_cost.dot(inv).dot(A, out=reduced)
        np.subtract(cost, reduced, out=reduced)
        reduced[basic] = 0.0
        col = int(reduced.argmin())  # Dantzig: most negative, smallest index on ties
        if reduced[col] >= -_REVISED_ENTER_EPS:
            # the inverse may have drifted since its refactor: price again
            # with fresh multipliers, and on an improving column refactor it
            pi = _solve(A.take(basis, axis=1).T, basic_cost)
            np.subtract(cost, pi.dot(A, out=reduced), out=reduced)
            reduced[basic] = 0.0
            col = int(reduced.argmin())
            if reduced[col] >= -_REVISED_ENTER_EPS:
                return pi
            _refactor(T, A, b, basis)
            updates = 0
        if bland:
            col = int((reduced < -_REVISED_ENTER_EPS).argmax())  # smallest improving index
        column = inv.dot(A[:, col])
        row = _ratio_test(x.tolist(), column.tolist(), basis, bland)
        if row is None:
            raise SolverFailure(f"problem is unbounded: no row limits entering column {col}")
        budget.spend()
        basis[row] = col
        basic[row] = col
        basic_cost[row] = cost[col]
        updates += 1
        if updates == _REFACTOR_INTERVAL:
            _refactor(T, A, b, basis)
            updates = 0
        else:
            _eliminate(T, column, row)


def _start_basis(problem: LpProblem, tol: SolverTolerances
                 ) -> tuple[list[int], tuple[np.ndarray, np.ndarray]]:
    """(problem.start, (B^-1, B^-1 rhs)), the feasible basis the revised
    method starts from with its inverse and point; LpInputError naming the
    failed condition unless B = rows[:, start] is nonsingular and B^-1 rhs
    >= -eps_feas.

    B counts as singular when its 1-norm condition number reaches
    1/_PIVOT_EPS: rows that are equal up to round-off leave B invertible in
    floating point, and the pivots would then stop on a singular basis.
    """
    basis = list(problem.start)
    B = problem.rows.take(basis, axis=1)
    try:
        inverse = np.linalg.inv(B)
    except np.linalg.LinAlgError:
        raise _refused(basis, "is singular") from None
    condition = np.abs(B).sum(axis=0).max() * np.abs(inverse).sum(axis=0).max()
    if not condition < 1.0 / _PIVOT_EPS:
        raise _refused(basis, f"is singular to working precision (condition number "
                              f"{condition:.3g}, limit {1.0 / _PIVOT_EPS:.0e})")
    point = inverse.dot(problem.rhs)
    if not (point >= -tol.eps_feas).all():  # NaN fails too
        i = int(np.flatnonzero(~(point >= -tol.eps_feas))[0])
        raise _refused(basis, f"is infeasible: its point has {point[i]:.3g} on column "
                              f"{basis[i]}, below -eps_feas")
    return basis, (inverse, point)


def _refused(basis: list, reason: str) -> LpInputError:
    """LpInputError on a start basis, in Python ints: numpy 2 prints np.int64(3)."""
    return LpInputError(f"start basis {tuple(map(int, basis))} {reason}")


def _solve_revised(problem: LpProblem, tol: SolverTolerances) -> LpResult:
    basis, start = _start_basis(problem, tol)
    A, b, cost, budget = problem.rows, problem.rhs, problem.objective, _Budget(problem)
    try:
        pi = _revised_simplex(A, b, cost, basis, budget, start, False)
    except SolverFailure:  # Dantzig pricing can cycle, or pivot into a singular basis
        basis = list(problem.start)
        budget.cap += budget.used  # a fresh budget, and used counts both runs
        pi = _revised_simplex(A, b, cost, basis, budget, start, True)
    y = np.zeros(problem.n_variables)
    y[basis] = _solve(A.take(basis, axis=1), b)
    _verify_solution(problem, y, tol.eps_feas)
    y.flags.writeable = False
    pi.flags.writeable = False
    return LpResult(float(cost.dot(y)), y, budget.used, pi)


def _phase_one(problem: LpProblem):
    """Build the tableau and minimize the artificial sum.

    Returns (T, basis, art_start, residual infeasibility, budget).
    """
    budget = _Budget(problem)
    T, basis, art_start = _build_tableau(problem.rows, problem.rhs)
    residual = 0.0
    if T.shape[1] - 1 > art_start:
        cost = np.zeros(T.shape[1] - 1)
        cost[art_start:] = 1.0
        _install_cost_row(T, basis, cost)
        _run_simplex(T, basis, budget)  # the sum is bounded below by 0
        residual = -T[-1, -1]
    return T, basis, art_start, residual, budget


def solve_lp(problem: LpProblem, tol: SolverTolerances = DEFAULT_TOLERANCES) -> LpResult:
    """The optimum of the LP; deterministic for a fixed problem.

    Raises SolverFailure naming the cause when there is none (infeasible,
    unbounded) or none was found (pivot budget, failed check), and
    LpInputError when the start basis is unusable (see _start_basis).
    """
    if problem.start is not None:
        return _solve_revised(problem, tol)
    T, basis, art_start, residual, budget = _phase_one(problem)
    if residual > tol.eps_feas:
        raise SolverFailure(f"problem is infeasible: phase one leaves residual "
                            f"{residual:.3e} above eps_feas")
    T, basis = _drop_artificials(T, basis, art_start)
    cost = np.zeros(T.shape[1] - 1)
    cost[: problem.n_variables] = problem.objective
    _install_cost_row(T, basis, cost)
    _run_simplex(T, basis, budget)
    y = np.zeros(art_start)
    y[basis] = T[:-1, -1]
    y = y[: problem.n_variables]
    _verify_solution(problem, y, tol.eps_feas)
    y.flags.writeable = False
    return LpResult(float(problem.objective @ y), y, budget.used)


def check_feasible(problem: LpProblem, tol: SolverTolerances = DEFAULT_TOLERANCES) -> bool:
    """Feasibility test; the objective is ignored.  A problem without a start
    runs the dense phase one; one with a start is feasible at it, which
    _start_basis checks (LpInputError when unusable)."""
    if problem.start is None:
        return bool(_phase_one(problem)[3] <= tol.eps_feas)
    _start_basis(problem, tol)
    return True
