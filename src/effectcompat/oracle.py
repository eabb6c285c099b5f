"""Independent verification of lambda0, guarding against solver bugs.

Two routes that share no code with the simplex solver:

* brute-force enumeration of witness coefficients on a uniform grid,
  which brackets lambda0 from above (every feasible grid candidate is a
  witness) while max_v max(e, f) brackets it from below;
* on simplex state spaces, where the pointwise minimum of the two effects
  is affine, the closed form lambda0 = max_v max(e, f), the grid's lower bound.

Verification tooling: the library's own computations never consult this
module, and neither `import effectcompat` nor the CLI loads it; only the
tests import it.
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

# Candidates x vertices per chunk of grid_lambda0: its products take 8 MB at
# any k (a peak of 9 to 23 MB over the zoo models with two axes or more).
_CHUNK_ENTRIES = 1 << 20


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
                 tol: SolverTolerances = DEFAULT_TOLERANCES) -> GridResult:
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
    if len(space.frame) == space.n_vertices == space.dimension + 1:  # M is invertible
        covers.append(np.linalg.solve(M, minef))
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
                tol: SolverTolerances = DEFAULT_TOLERANCES,
                resolution: int = 51) -> CrossCheckReport:
    """Compare the LP value against the independent routes.

    Discrepancies are reported, not raised: on simplices the LP must match
    the closed form within eps_opt, and everywhere it must sit inside
    [grid lower bound, grid value + grid step].  A space is a simplex when
    its frame holds every vertex; its closed form is the grid's lower bound.
    """
    report = compute_lambda0(space, e, f, tol)
    grid = grid_lambda0(space, e, f, resolution, tol)
    closed = grid.lower_bound if len(space.frame) == space.n_vertices else None
    issues: list[str] = []
    if closed is not None and abs(report.lambda0 - closed) > tol.eps_opt:
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
