"""Linear programming by the two-phase simplex method, in two forms.

Internal to effectcompat: only SolverFailure is part of the public API.
Every problem has one form, minimize c . y subject to rows . y (<=, >=, =)
rhs with y >= 0; a caller with free variables poses each as the difference
of two nonnegative ones.  solve_lp and check_feasible pick the method from
the rows alone:

* Every row an equality (the duals of the witness LPs, d+2 rows over 4k
  vertex weights, and the hull LPs of the redundancy scan): the revised
  simplex method.  The basis is kept as a list of columns with an explicit
  inverse B^-1 beside it.  Each pivot updates B^-1 and the basic point
  x = B^-1 b by one rank-one (eta) step, and every _REFACTOR_INTERVAL
  pivots both are recomputed from the basis columns, so round-off cannot
  build up over a long solve.  The point and the multipliers returned are
  read out with two fresh numpy.linalg.solve calls on the final basis, so
  the updates never reach them.  Pricing is Dantzig's (most negative
  reduced cost, smallest index on ties); after _DEGENERATE_RUN degenerate
  pivots in a row it hands over to Bland's rule until the point moves
  again, so it cannot cycle.
  A problem may carry a start basis, one column per row.  When B =
  rows[:, start] is nonsingular (condition number below 1/_PIVOT_EPS) and
  B^-1 rhs >= -eps_feas, phase two starts there, from the inverse that
  check computed, and phase one is skipped; check_feasible then answers
  True with no pivot.  The witness duals all carry one.  Otherwise phase
  one starts from one artificial per row; an artificial left in the basis
  is driven out on the largest-magnitude entry of its row of B^-1 A, and a
  row where that entry is zero is redundant and dropped.  The result
  carries the simplex multipliers pi of the rows, which solve the
  problem's own dual: c - rows^T pi >= 0 at the optimum.
* Otherwise: a dense, column-major tableau with Bland's rule for both the
  entering and the leaving choice, every pivot rewriting the whole tableau.
  The package poses only one such LP, the lambda primal of a space with at
  most 4 vertices (at most 16 rows); the tableau has no size limit.

In both, iterations counts the simplex pivots of both phases, or of phase
two alone when the start basis is taken; pivots that drive artificials out
of the basis after phase one are not counted.  Every returned point is
checked against every row and bound within eps_feas.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .tolerances import DEFAULT_TOLERANCES, SolverTolerances

LE = "<="
GE = ">="
EQ = "="
RELATIONS = (LE, GE, EQ)

# Entries below _PIVOT_EPS never serve as pivots; reduced costs above
# -_ENTER_EPS count as optimal on the dense tableau.  Both sit well under the
# user-facing tolerances for the well-scaled problems this solver is built for.
_PIVOT_EPS = 1e-11
_ENTER_EPS = 1e-10

# The revised method's reduced costs come from B^-1, which the refactor below
# keeps within a few ulps of a fresh inverse, so it stops only at
# -_REVISED_ENTER_EPS: at 1e-10 the least slack of a polygon-16 witness system
# came out 0, not 1.9e-11 (its HiGHS value).
_REVISED_ENTER_EPS = 1e-12

# The revised method updates B^-1 by one eta step per pivot and inverts the
# basis afresh after this many updates.  The drift is small either way: over
# 60 updates on hypercube-12 lambda duals, B times the updated B^-1 stayed
# within 3e-14 of the identity; the interval bounds it on longer solves.
_REFACTOR_INTERVAL = 32

# The revised method hands Dantzig pricing over to Bland's rule after this
# many degenerate pivots in a row (pivots whose step is within the ratio-tie
# slack of 0), and takes it back after the next pivot that moves the point.
# The hypercube lambda duals make runs of up to about 30 without cycling: at
# 10 a hypercube-10 pair took 251 pivots instead of 59, and hypercube-12
# pairs 138 instead of 70; from 30 up the counts no longer change.
_DEGENERATE_RUN = 50

# Pivot budget is ITERATION_CAP_FACTOR * (m + n).  Exceeding it raises
# SolverFailure; it is never reported as Infeasible.
ITERATION_CAP_FACTOR = 10_000


class LpError(Exception):
    """Base class for solver errors."""


class LpInputError(LpError):
    """Malformed problem data: shape mismatch or unknown relation."""


class SolverFailure(LpError):
    """The solver gave up (pivot budget exhausted or internal check failed).

    Says nothing about the problem itself, unlike an Infeasible status.
    """


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LpProblem:
    """minimize objective . y subject to rows[i] . y (relations[i]) rhs[i], y >= 0.

    start optionally names a basis to try before phase one: one distinct
    column index per row, on a problem whose rows are all equalities.
    """

    objective: np.ndarray
    rows: np.ndarray
    relations: tuple[str, ...]
    rhs: np.ndarray
    start: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        # copies keep the frozen instance detached from caller-owned arrays
        c = np.atleast_1d(np.array(self.objective, dtype=float))
        if c.ndim != 1 or c.size < 1:
            raise LpInputError("objective must be a nonempty 1-d vector")
        n = c.size
        rows = np.array(self.rows, dtype=float)
        if rows.size == 0:
            rows = rows.reshape(0, n)
        if rows.ndim != 2 or rows.shape[1] != n:
            raise LpInputError(
                f"constraint rows must form an (m, {n}) matrix, got shape {rows.shape}"
            )
        m = rows.shape[0]
        rels = tuple(self.relations)
        for rel in rels:
            if rel not in RELATIONS:
                raise LpInputError(f"unknown relation {rel!r}; expected one of {RELATIONS}")
        if len(rels) != m:
            raise LpInputError(f"{m} rows but {len(rels)} relations")
        rhs = np.atleast_1d(np.array(self.rhs, dtype=float))
        if rhs.shape != (m,):
            raise LpInputError(f"rhs must have shape ({m},), got {rhs.shape}")
        if self.start is not None:
            object.__setattr__(self, "start", _checked_start(self.start, rels, n))
        c.flags.writeable = False
        rows.flags.writeable = False
        rhs.flags.writeable = False
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "relations", rels)
        object.__setattr__(self, "rhs", rhs)

    @property
    def n_variables(self) -> int:
        return self.objective.size

    @property
    def n_constraints(self) -> int:
        return self.rows.shape[0]

    @property
    def bounds(self) -> tuple[tuple[float, None], ...]:
        # perfbench.tracing.tableau_shape reads per-variable bounds to count
        # tableau columns; every variable is nonnegative.
        return ((0.0, None),) * self.n_variables


def _checked_start(start, relations: tuple[str, ...], n: int) -> tuple[int, ...]:
    m = len(relations)
    if not 0 < m == relations.count(EQ):
        raise LpInputError("a start basis needs a problem whose rows are all equalities")
    try:
        start = tuple(operator.index(j) for j in start)
    except TypeError:
        raise LpInputError(f"start must be a sequence of column indices, got {start!r}") from None
    if len(start) != m:
        raise LpInputError(f"{m} rows but a start basis of {len(start)} columns")
    outside = [j for j in start if not 0 <= j < n]
    if outside:
        raise LpInputError(f"start column {outside[0]} outside 0..{n - 1}")
    if len(set(start)) != m:
        raise LpInputError(f"start basis {start} repeats a column")
    return start


@dataclass(frozen=True)
class LpResult:
    """Solver outcome; value and point are None unless status is OPTIMAL.

    multipliers holds the simplex multipliers pi of the rows at the optimum,
    with objective - rows^T pi >= 0 and rhs . pi equal to value up to
    round-off.  Only the revised method (every row an equality) sets them;
    a row dropped as redundant gets 0.
    """

    status: LpStatus
    value: float | None
    point: np.ndarray | None
    iterations: int
    multipliers: np.ndarray | None = None


class _Budget:
    def __init__(self, problem: LpProblem):
        self.cap = ITERATION_CAP_FACTOR * (problem.n_constraints + problem.n_variables)
        self.used = 0

    def spend(self) -> None:
        self.used += 1
        if self.used > self.cap:
            raise SolverFailure(
                f"pivot budget exhausted ({self.cap} iterations); "
                "the problem status is undetermined"
            )


def _pivot(T: np.ndarray, basis: list[int], row: int, col: int) -> None:
    T[row] /= T[row, col]
    prow = T[row]
    factors = T[:, col].copy()
    factors[row] = 0.0
    Tt = T.T  # C-ordered: a column of T is a contiguous row of T.T
    Tt -= np.multiply.outer(prow, factors)
    T[:, col] = 0.0
    T[row, col] = 1.0
    basis[row] = col


def _install_cost_row(T: np.ndarray, basis: list[int], cost: np.ndarray) -> None:
    T[-1, :-1] = cost
    T[-1, -1] = 0.0
    for i, bv in enumerate(basis):
        coef = T[-1, bv]
        if coef != 0.0:
            T[-1] -= coef * T[i]


def _run_simplex(T: np.ndarray, basis: list[int], budget: _Budget) -> str:
    """Minimize the installed cost row in place; 'optimal' or 'unbounded'."""
    m = T.shape[0] - 1
    while True:
        reduced = T[-1, :-1]
        improving = np.flatnonzero(reduced < -_ENTER_EPS)
        if improving.size == 0:
            return "optimal"
        col = int(improving[0])  # Bland: smallest improving index
        column = T[:m, col]
        positive = column > _PIVOT_EPS
        if not positive.any():
            return "unbounded"
        rhs = np.maximum(T[:m, -1], 0.0)
        ratios = np.full(m, np.inf)
        ratios[positive] = rhs[positive] / column[positive]
        best = ratios.min()
        ties = np.flatnonzero(ratios <= best + 1e-12 * max(1.0, best))
        row = min(ties, key=lambda i: basis[i])  # Bland again on ties
        budget.spend()
        _pivot(T, basis, int(row), col)


def _build_tableau(A: np.ndarray, rels: list[str], b: np.ndarray):
    """Add slack/surplus/artificial columns; return (T, basis, art_start)."""
    m, p = A.shape
    flip = b < 0.0  # make the right-hand side nonnegative
    A, b = np.where(flip[:, None], -A, A), np.where(flip, -b, b)
    rels = [{LE: GE, GE: LE}.get(rel, rel) if fl else rel for rel, fl in zip(rels, flip)]
    n_slack = sum(1 for r in rels if r == LE)
    n_surplus = sum(1 for r in rels if r == GE)
    n_art = sum(1 for r in rels if r != LE)
    slack_start = p
    surplus_start = slack_start + n_slack
    art_start = surplus_start + n_surplus
    width = art_start + n_art
    T = np.zeros((m + 1, width + 1), order="F")  # column-major: pivots touch columns
    T[:m, :p] = A
    T[:m, -1] = b
    basis: list[int] = []
    i_slack = i_surplus = i_art = 0
    for i, rel in enumerate(rels):
        if rel == LE:
            T[i, slack_start + i_slack] = 1.0
            basis.append(slack_start + i_slack)
            i_slack += 1
        else:
            if rel == GE:
                T[i, surplus_start + i_surplus] = -1.0
                i_surplus += 1
            T[i, art_start + i_art] = 1.0
            basis.append(art_start + i_art)
            i_art += 1
    return T, basis, art_start


def _drop_artificials(T: np.ndarray, basis: list[int], art_start: int):
    """Pivot artificials out of the basis, drop redundant rows and columns."""
    m = T.shape[0] - 1
    drop_rows = []
    for i in range(m):
        if basis[i] >= art_start:
            candidates = np.flatnonzero(np.abs(T[i, :art_start]) > _PIVOT_EPS)
            if candidates.size:
                _pivot(T, basis, i, int(candidates[0]))
            else:
                drop_rows.append(i)  # all-zero structural row: redundant
    if drop_rows:
        T = np.delete(T, drop_rows, axis=0)
        dropped = set(drop_rows)
        basis = [bv for i, bv in enumerate(basis) if i not in dropped]
    T = T[:, list(range(art_start)) + [T.shape[1] - 1]]
    return np.asfortranarray(T), basis


def _sense(relations: tuple[str, ...]) -> np.ndarray:
    """1 on each <= row, -1 on each >= row and 0 on each = row, with no
    per-row loop: with <= and >= shortened to "<" and ">", each relation is
    one byte, and "<", "=", ">" are consecutive in ASCII."""
    text = "".join(relations).replace(LE, "<").replace(GE, ">").encode("ascii")
    return ord("=") - np.frombuffer(text, np.uint8).astype(float)


def verify_rows(rows: np.ndarray, relations: tuple[str, ...], rhs: np.ndarray,
                y: np.ndarray, eps: float, subject: str = "returned point") -> None:
    """Raise SolverFailure naming the first row rows[i] . y (relations[i]) rhs[i]
    that y breaks by more than eps; one numpy pass, O(rows.size)."""
    residual = rows @ y - rhs
    sense = _sense(relations)
    excess = np.where(sense == 0.0, np.abs(residual), sense * residual)
    bad = np.flatnonzero(excess > eps)
    if bad.size:
        i = int(bad[0])
        raise SolverFailure(
            f"{subject} violates constraint {i} ({relations[i]} residual {residual[i]:.3e})"
        )


def _verify_solution(problem: LpProblem, y: np.ndarray, eps: float) -> None:
    verify_rows(problem.rows, problem.relations, problem.rhs, y, eps)
    negative = np.flatnonzero(y < -eps)
    if negative.size:
        raise SolverFailure(f"returned point violates lower bound on variable {negative[0]}")


def _equality_form(problem: LpProblem) -> bool:
    """Every row an equality: the form the revised method solves."""
    return 0 < problem.n_constraints == problem.relations.count(EQ)


def _solve(B: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(B, rhs)
    except np.linalg.LinAlgError as exc:
        raise SolverFailure(f"singular {B.shape[0]} x {B.shape[1]} basis: {exc}") from exc


def _revised_simplex(A: np.ndarray, b: np.ndarray, cost: np.ndarray, basis: list[int],
                     budget: _Budget, inverse: np.ndarray | None = None) -> str:
    """Minimize cost . y over A y = b, y >= 0 from a feasible basis, in place;
    'optimal' or 'unbounded'.

    inverse is B^-1 of the given basis when the caller has it; otherwise it
    is computed here.  The loop keeps T = [B^-1 | B^-1 b]: a pivot on row r
    and entering column a = A[:, col], with d = B^-1 a, divides row r of T
    by d_r and subtracts d_i times that row from every other row i, which is
    the inverse and the point of the new basis.  After _REFACTOR_INTERVAL
    such updates T is recomputed from the basis columns.
    """
    m = A.shape[0]
    T = np.empty((m, m + 1))
    T[:, :m] = inverse if inverse is not None else _solve(A[:, basis], np.eye(m))
    T[:, m] = T[:, :m] @ b
    inv, x = T[:, :m], T[:, m]
    basic_cost = cost[basis]
    degenerate = updates = 0
    while True:
        reduced = cost - (basic_cost @ inv) @ A
        reduced[basis] = 0.0
        dantzig = degenerate < _DEGENERATE_RUN
        if dantzig:
            col = int(np.argmin(reduced))  # most negative, smallest index on ties
            if reduced[col] >= -_REVISED_ENTER_EPS:
                return "optimal"
        else:
            improving = np.flatnonzero(reduced < -_REVISED_ENTER_EPS)
            if improving.size == 0:
                return "optimal"
            col = int(improving[0])  # Bland: smallest improving index
        column = inv @ A[:, col]
        ratios = np.divide(np.maximum(x, 0.0), column, out=np.full(m, np.inf),
                           where=column > _PIVOT_EPS)
        best = ratios.min()
        if best == np.inf:
            return "unbounded"
        slack = 1e-12 * max(1.0, best)
        tied = ratios <= best + slack
        if dantzig:  # the largest pivot among the ties keeps B well conditioned
            row = int(np.argmax(np.where(tied, column, -np.inf)))
        else:
            row = int(min(np.flatnonzero(tied), key=lambda i: basis[i]))  # Bland again on ties
        degenerate = degenerate + 1 if best <= slack else 0
        budget.spend()
        basis[row] = col
        basic_cost[row] = cost[col]
        updates += 1
        if updates == _REFACTOR_INTERVAL:
            T[:, :m] = _solve(A[:, basis], np.eye(m))
            T[:, m] = T[:, :m] @ b
            updates = 0
        else:
            T[row] /= column[row]
            column[row] = 0.0
            T -= np.multiply.outer(column, T[row])


def _revised_phase_one(problem: LpProblem):
    """Minimize the artificial sum from one artificial per row.

    Rows are signed so that the right-hand side is nonnegative and
    artificial column n + i belongs to row i.  Returns (A, b, basis,
    residual infeasibility, budget, signs), A with the artificial columns.
    """
    m, n = problem.n_constraints, problem.n_variables
    budget = _Budget(problem)
    signs = np.where(problem.rhs < 0.0, -1.0, 1.0)
    A = np.hstack([problem.rows * signs[:, None], np.eye(m)])
    b = problem.rhs * signs
    cost = np.concatenate([np.zeros(n), np.ones(m)])
    basis = list(range(n, n + m))
    if _revised_simplex(A, b, cost, basis, budget, np.eye(m)) != "optimal":  # bounded below by 0
        raise SolverFailure("phase one reported unbounded; solver invariant broken")
    residual = float(cost[basis] @ _solve(A[:, basis], b))
    return A, b, basis, residual, budget, signs


def _drive_out_artificials(A: np.ndarray, n: int, basis: list[int]) -> list[int]:
    """Pivot each artificial left in the basis out on the largest-magnitude
    entry of its row of B^-1 A over the structural columns.

    Where that row is zero, the artificial's own row is a combination of the
    others (B^-1 has a 1 on it) and is redundant: the row and the artificial
    are dropped, which leaves B nonsingular.  Returns the rows kept; basis
    shrinks to their structural columns.
    """
    m = A.shape[0]
    dropped = []
    for r in range(m):
        if basis[r] < n:
            continue
        entries = _solve(A[:, basis].T, np.eye(m)[r]) @ A[:, :n]
        entries[[j for j in basis if j < n]] = 0.0
        j = int(np.argmax(np.abs(entries)))
        if abs(entries[j]) > _PIVOT_EPS:
            basis[r] = j
        else:
            dropped.append(r)
    kept = sorted(set(range(m)) - {basis[r] - n for r in dropped})
    basis[:] = [bv for r, bv in enumerate(basis) if r not in dropped]
    return kept


def _start_basis(problem: LpProblem,
                 tol: SolverTolerances) -> tuple[list[int], np.ndarray] | None:
    """(problem.start, B^-1) when B = rows[:, start] is nonsingular and B^-1
    rhs >= -eps_feas, a feasible basis for phase two; otherwise None.

    B counts as singular when its 1-norm condition number reaches
    1/_PIVOT_EPS: rows that are equal up to round-off leave B invertible in
    floating point, and phase two would then stop on a singular basis.
    """
    if problem.start is None:
        return None
    basis = list(problem.start)
    B = problem.rows[:, basis]
    try:
        inverse = np.linalg.inv(B)
    except np.linalg.LinAlgError:
        return None
    if not np.abs(B).sum(axis=0).max() * np.abs(inverse).sum(axis=0).max() < 1.0 / _PIVOT_EPS:
        return None
    if not np.all(inverse @ problem.rhs >= -tol.eps_feas):  # NaN fails too
        return None
    return basis, inverse


def _solve_revised(problem: LpProblem, tol: SolverTolerances) -> LpResult:
    n = problem.n_variables
    start = _start_basis(problem, tol)
    if start is None:
        A, b, basis, residual, budget, signs = _revised_phase_one(problem)
        if residual > tol.eps_feas:
            return LpResult(LpStatus.INFEASIBLE, None, None, budget.used)
        kept = _drive_out_artificials(A, n, basis)
        A, b, inverse = A[kept, :n], b[kept], None
    else:
        basis, inverse = start
        A, b, budget, signs, kept = problem.rows, problem.rhs, _Budget(problem), 1.0, slice(None)
    cost = problem.objective
    if _revised_simplex(A, b, cost, basis, budget, inverse) == "unbounded":
        return LpResult(LpStatus.UNBOUNDED, None, None, budget.used)
    B = A[:, basis]
    y = np.zeros(n)
    y[basis] = _solve(B, b)
    _verify_solution(problem, y, tol.eps_feas)
    pi = np.zeros(problem.n_constraints)
    pi[kept] = _solve(B.T, cost[basis])
    pi *= signs
    y.flags.writeable = False
    pi.flags.writeable = False
    return LpResult(LpStatus.OPTIMAL, float(cost @ y), y, budget.used, pi)


def _phase_one(problem: LpProblem):
    """Build the tableau and minimize the artificial sum.

    Returns (T, basis, art_start, residual infeasibility, budget).
    """
    budget = _Budget(problem)
    T, basis, art_start = _build_tableau(problem.rows, problem.relations, problem.rhs)
    residual = 0.0
    if T.shape[1] - 1 > art_start:
        cost = np.zeros(T.shape[1] - 1)
        cost[art_start:] = 1.0
        _install_cost_row(T, basis, cost)
        if _run_simplex(T, basis, budget) != "optimal":  # the sum is bounded below by 0
            raise SolverFailure("phase one reported unbounded; solver invariant broken")
        residual = -T[-1, -1]
    return T, basis, art_start, residual, budget


def solve_lp(problem: LpProblem, tol: SolverTolerances | None = None) -> LpResult:
    """Solve the LP; deterministic for a fixed problem.

    Raises SolverFailure when the pivot budget runs out, which is reported
    distinctly from infeasibility.
    """
    tol = tol if tol is not None else DEFAULT_TOLERANCES
    if _equality_form(problem):
        return _solve_revised(problem, tol)
    T, basis, art_start, residual, budget = _phase_one(problem)
    if residual > tol.eps_feas:
        return LpResult(LpStatus.INFEASIBLE, None, None, budget.used)
    T, basis = _drop_artificials(T, basis, art_start)
    cost = np.zeros(T.shape[1] - 1)
    cost[: problem.n_variables] = problem.objective
    _install_cost_row(T, basis, cost)
    outcome = _run_simplex(T, basis, budget)
    if outcome == "unbounded":
        return LpResult(LpStatus.UNBOUNDED, None, None, budget.used)
    y = np.zeros(art_start)
    y[basis] = T[:-1, -1]
    y = y[: problem.n_variables]
    _verify_solution(problem, y, tol.eps_feas)
    value = float(problem.objective @ y)
    y.flags.writeable = False
    return LpResult(LpStatus.OPTIMAL, value, y, budget.used)


def check_feasible(problem: LpProblem, tol: SolverTolerances | None = None) -> bool:
    """Phase-one feasibility test; the objective is ignored.  A feasible start
    basis answers True without phase one."""
    tol = tol if tol is not None else DEFAULT_TOLERANCES
    if not _equality_form(problem):
        return bool(_phase_one(problem)[3] <= tol.eps_feas)
    if _start_basis(problem, tol) is not None:
        return True
    return bool(_revised_phase_one(problem)[3] <= tol.eps_feas)
