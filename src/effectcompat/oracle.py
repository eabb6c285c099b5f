"""Independent verification of lambda0, guarding against solver bugs.

Two routes that share no code with the simplex solver:

* a closed form on simplex state spaces, where the pointwise minimum of
  the two effects is itself affine, so lambda0 = max_i max(e_i, f_i);
* brute-force enumeration of witness coefficients on a uniform grid,
  which brackets lambda0 from above (every feasible grid candidate is a
  witness) while max_v max(e, f) brackets it from below.

Verification tooling: the library's own computations never consult this
module.  effectcompat re-exports its public names, and the tests and the
hidden `oracle` CLI command call it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .compat import compute_lambda0
from .core import Effect, StateSpace, checked_vertex_values
from .tolerances import DEFAULT_TOLERANCES, SolverTolerances

MAX_GRID_DIMENSION = 3

# grid_lambda0's cap on resolution**(d+1), about 1.5 times the d = 3 default 51**4
MAX_GRID_CANDIDATES = 10**7

# Feasibility slack for grid candidates; fixed and tiny so that exact
# boundary witnesses (like g = 0) survive float rounding.
_GRID_SLACK = 1e-12

_CHUNK_ENTRIES = 1 << 20  # candidates x vertices per chunk: about 17 MB at any k


def simplex_lambda0_closed_form(e_values, f_values) -> float:
    """lambda0 on a simplex: max_i max(e_i, f_i).

    On a simplex the optimal witness takes the vertex values
    min(e_i, f_i), which leaves max(e_i, f_i) as the smallest scaling.
    """
    ev = np.atleast_1d(np.asarray(e_values, dtype=float))
    fv = np.atleast_1d(np.asarray(f_values, dtype=float))
    if ev.shape != fv.shape or ev.ndim != 1 or ev.size == 0:
        raise ValueError(
            f"value vectors must be equal-length and nonempty, got {ev.shape} vs {fv.shape}"
        )
    eps = DEFAULT_TOLERANCES.eps_geom
    for label, vals in (("e", ev), ("f", fv)):
        if vals.min() < -eps or vals.max() > 1.0 + eps:
            raise ValueError(f"{label} values must lie in [0, 1], got {vals.tolist()}")
    return float(np.maximum(ev, fv).max())


@dataclass(frozen=True)
class GridResult:
    """Bracket for lambda0 from grid enumeration.

    value is an upper bound (min over feasible candidates of
    max_v(e+f-g)); lower_bound = max_v max(e, f) is a lower bound;
    step_bound is the largest change of a candidate's vertex value under a
    half-step move of every coefficient, i.e. the resolution-dependent
    slack of the upper bound.
    """

    value: float
    lower_bound: float
    step_bound: float
    n_feasible: int
    box: tuple[float, float]
    box_expanded: bool


def grid_lambda0(space: StateSpace, e: Effect, f: Effect,
                 resolution: int = 51,
                 tol: SolverTolerances | None = None) -> GridResult:
    """Enumerate witness coefficients on a uniform grid over a box.

    The box defaults to [-1, 1] per coefficient and is expanded (and
    flagged) when the coefficients of e, f, or the simplex-interpolated
    pointwise minimum, escape it.  Cost grows as resolution**(d+1), so the
    state-space dimension is capped at MAX_GRID_DIMENSION and the candidate
    count at MAX_GRID_CANDIDATES.  e and f are checked as effects on space
    first: EffectRangeError names a vertex where one leaves [0, 1].
    """
    if space.dimension > MAX_GRID_DIMENSION:
        raise ValueError(
            f"grid oracle handles dimension <= {MAX_GRID_DIMENSION}, "
            f"got {space.dimension}"
        )
    if resolution < 2:
        raise ValueError(f"resolution must be >= 2, got {resolution}")
    n_axes = space.dimension + 1
    total = resolution**n_axes
    if total > MAX_GRID_CANDIDATES:
        raise ValueError(f"grid oracle enumerates at most {MAX_GRID_CANDIDATES} candidates, "
                         f"got resolution {resolution}**{n_axes} = {total}")
    M = space.vertex_matrix()
    ev = checked_vertex_values(space, e.coefficients, tol)
    fv = checked_vertex_values(space, f.coefficients, tol)
    minef = np.minimum(ev, fv)
    target = ev + fv

    covers = [e.coefficients, f.coefficients]
    if space.n_vertices == space.dimension + 1:
        try:
            covers.append(np.linalg.solve(M, minef))
        except np.linalg.LinAlgError:
            pass
    lo = min(-1.0, min(float(c.min()) for c in covers))
    hi = max(1.0, max(float(c.max()) for c in covers))
    expanded = lo < -1.0 or hi > 1.0

    axis = np.linspace(lo, hi, resolution)
    chunk = max(1, _CHUNK_ENTRIES // space.n_vertices)
    best = np.inf
    n_feasible = 0
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total))
        coords = np.empty((idx.size, n_axes))
        rem = idx
        for a in range(n_axes - 1, -1, -1):
            coords[:, a] = axis[rem % resolution]
            rem = rem // resolution
        G = coords @ M.T
        ok = np.all((G >= -_GRID_SLACK) & (G <= minef + _GRID_SLACK), axis=1)
        n_feasible += int(np.count_nonzero(ok))
        if ok.any():
            candidate = float(np.max(target - G[ok], axis=1).min())
            if candidate < best:
                best = candidate
    h = (hi - lo) / (resolution - 1)
    step_bound = 0.5 * h * float(np.abs(M).sum(axis=1).max())
    return GridResult(
        value=best,
        lower_bound=float(np.maximum(ev, fv).max()),
        step_bound=step_bound,
        n_feasible=n_feasible,
        box=(lo, hi),
        box_expanded=expanded,
    )


def _is_simplex(space: StateSpace) -> bool:
    if space.n_vertices != space.dimension + 1:
        return False
    if space.dimension == 0:
        return True
    diffs = space.vertices[1:] - space.vertices[0]
    return int(np.linalg.matrix_rank(diffs)) == space.dimension


@dataclass(frozen=True)
class CrossCheckReport:
    lp_lambda0: float
    grid: GridResult
    closed_form: float | None
    discrepancies: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.discrepancies


def cross_check(space: StateSpace, e: Effect, f: Effect,
                tol: SolverTolerances | None = None,
                resolution: int = 51) -> CrossCheckReport:
    """Compare the LP value against the independent routes.

    Discrepancies are reported, not raised: on simplices the LP must match
    the closed form within eps_opt, and everywhere it must sit inside
    [grid lower bound, grid value + grid step].
    """
    tol = tol if tol is not None else DEFAULT_TOLERANCES
    report = compute_lambda0(space, e, f, tol)
    grid = grid_lambda0(space, e, f, resolution, tol)
    closed: float | None = None
    issues: list[str] = []
    if _is_simplex(space):
        closed = simplex_lambda0_closed_form(
            e.vertex_values(space), f.vertex_values(space)
        )
        if abs(report.lambda0 - closed) > tol.eps_opt:
            issues.append(
                f"LP lambda0 {report.lambda0:.12g} differs from the simplex "
                f"closed form {closed:.12g}"
            )
    if report.lambda0 > grid.value + grid.step_bound + tol.eps_opt:
        issues.append(
            f"LP lambda0 {report.lambda0:.12g} exceeds the grid upper bound "
            f"{grid.value:.12g} + step {grid.step_bound:.3g}"
        )
    if report.lambda0 < grid.lower_bound - tol.eps_opt:
        issues.append(
            f"LP lambda0 {report.lambda0:.12g} undercuts the lower bound "
            f"{grid.lower_bound:.12g}"
        )
    return CrossCheckReport(
        lp_lambda0=report.lambda0,
        grid=grid,
        closed_form=closed,
        discrepancies=tuple(issues),
    )
