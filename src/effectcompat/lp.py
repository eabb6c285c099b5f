"""Linear programming via the two-phase simplex method on a dense tableau.

Internal to effectcompat: only SolverFailure is part of the public API.
Every problem has one form, minimize c . y subject to rows . y (<=, >=, =)
rhs with y >= 0; a caller with free variables poses each as the difference
of two nonnegative ones.

The tableau is dense and column-major.  A pivot rewrites only the columns
where the normalised pivot row is nonzero (about 1% of them on the
512-row lambda LPs of 128-vertex spaces) when that skips enough entries,
and the whole tableau on small tableaux or dense rows.  Both give the same
floating-point result on every entry, up to the sign of an exact zero.
Bland's rule is used for both the entering and the leaving choice, which
keeps the solver deterministic and rules out cycling on degenerate problems
at the cost of a few extra pivots.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .tolerances import DEFAULT_TOLERANCES, SolverTolerances

LE = "<="
GE = ">="
EQ = "="
RELATIONS = (LE, GE, EQ)

# Entries below _PIVOT_EPS never serve as pivots; reduced costs above
# -_ENTER_EPS count as optimal.  Both sit well under the user-facing
# tolerances for the well-scaled problems this solver is built for.
_PIVOT_EPS = 1e-11
_ENTER_EPS = 1e-10

# Pivot budget is ITERATION_CAP_FACTOR * (m + n).  Exceeding it raises
# SolverFailure; it is never reported as Infeasible.
ITERATION_CAP_FACTOR = 10_000

# A pivot updates only the nonzero columns of its row when that skips more
# than this many tableau entries net: gathering and scattering the columns
# costs about twice the full update per entry, plus about 2 us.  The rule
# m * (n - 2 nnz) > 4096 matches the measured crossover of the two updates
# on tableaux from 8 x 16 to 200 x 300 at every pivot-row density (AMD EPYC,
# numpy 2.4).
_SPARSE_PIVOT_SAVING = 4096

# Larger dense tableaux are rejected before allocation, with SolverFailure
# rather than MemoryError.  A 2048-vertex lambda LP needs about 0.67 GB.
_MAX_TABLEAU_BYTES = 2**30


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
    """minimize objective . y subject to rows[i] . y (relations[i]) rhs[i], y >= 0."""

    objective: np.ndarray
    rows: np.ndarray
    relations: tuple[str, ...]
    rhs: np.ndarray

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


@dataclass(frozen=True)
class LpResult:
    """Solver outcome; value and point are None unless status is OPTIMAL."""

    status: LpStatus
    value: float | None
    point: np.ndarray | None
    iterations: int


class _Budget:
    def __init__(self, cap: int):
        self.cap = cap
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
    # T.T is C-ordered, so a column of T is a contiguous row of T.T.  A zero
    # entry of the pivot row leaves its column unchanged (up to the sign of an
    # exact zero), so a sparse row rewrites only its nonzero columns.
    Tt = T.T
    if T.shape[0] * (T.shape[1] - 2 * np.count_nonzero(prow)) > _SPARSE_PIVOT_SAVING:
        cols = np.flatnonzero(prow)
        Tt[cols] -= np.multiply.outer(prow[cols], factors)
    else:
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
    A = A.copy()
    b = b.copy()
    rels = list(rels)
    m, p = A.shape
    for i in range(m):  # make the right-hand side nonnegative
        if b[i] < 0.0:
            A[i] = -A[i]
            b[i] = -b[i]
            if rels[i] == LE:
                rels[i] = GE
            elif rels[i] == GE:
                rels[i] = LE
    n_slack = sum(1 for r in rels if r == LE)
    n_surplus = sum(1 for r in rels if r == GE)
    n_art = sum(1 for r in rels if r != LE)
    slack_start = p
    surplus_start = slack_start + n_slack
    art_start = surplus_start + n_surplus
    width = art_start + n_art
    nbytes = 8 * (m + 1) * (width + 1)
    if nbytes > _MAX_TABLEAU_BYTES:
        raise SolverFailure(
            f"dense tableau of {m + 1} rows x {width + 1} columns would take "
            f"{nbytes / 1e9:.3g} GB, over the {_MAX_TABLEAU_BYTES / 1e9:.3g} GB limit"
        )
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
        keep = [bv for i, bv in enumerate(basis) if i not in set(drop_rows)]
        basis = keep
    T = T[:, list(range(art_start)) + [T.shape[1] - 1]]
    return np.asfortranarray(T), basis


def _verify_solution(problem: LpProblem, y: np.ndarray, eps: float) -> None:
    lhs = problem.rows @ y
    for i, rel in enumerate(problem.relations):
        r = lhs[i] - problem.rhs[i]
        bad = (rel == LE and r > eps) or (rel == GE and r < -eps) or (rel == EQ and abs(r) > eps)
        if bad:
            raise SolverFailure(
                f"returned point violates constraint {i} ({rel} residual {r:.3e})"
            )
    negative = np.flatnonzero(y < -eps)
    if negative.size:
        raise SolverFailure(f"returned point violates lower bound on variable {negative[0]}")


def _phase_one(problem: LpProblem):
    """Build the tableau and minimize the artificial sum.

    Returns (T, basis, art_start, residual infeasibility, budget).
    """
    budget = _Budget(ITERATION_CAP_FACTOR * (problem.n_constraints + problem.n_variables))
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
    """Phase-one feasibility test; the objective is ignored."""
    tol = tol if tol is not None else DEFAULT_TOLERANCES
    residual = _phase_one(problem)[3]
    return bool(residual <= tol.eps_feas)
