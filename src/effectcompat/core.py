"""State spaces, effects and finite-outcome observables.

A state space is a convex polytope given by its vertices.  An effect is an
affine functional with values in [0, 1] on the polytope; by convexity it is
enough to check the vertices, so every validation below is a vertex sweep.
Effects are stored as d+1 affine coefficients (constant term first), which
keeps non-simplex spaces unambiguous.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .lp import EQ, LpProblem, check_feasible
from .tolerances import DEFAULT_TOLERANCES, SolverTolerances

# Above this vertex count the convex-hull redundancy scan is skipped;
# redundant vertices only add redundant constraints.  Below it, a vertex
# costs O(k*d) when a separating direction certifies it (see
# _hull_residual_bounds) and one small LP otherwise.
REDUNDANCY_CHECK_LIMIT = 512

# A vertex skips its hull LP only when the certified residual exceeds
# eps_feas by this factor, which absorbs the rounding of both the bound and
# the LP's own residual.
_CERTIFICATE_MARGIN = 1e3

# A vertex joins the affine frame only if its distance from the span of the
# frame so far exceeds this fraction of the largest distance from vertex 0;
# below it the space counts as not full-dimensional.
_FRAME_EPS = 1e-9


class RedundantVertexWarning(UserWarning):
    """A supplied vertex lies in the convex hull of the others."""


class EffectRangeError(ValueError):
    """An affine functional leaves [0, 1] somewhere on the state space."""


class RepresentabilityError(ValueError):
    """A vertex-value assignment is not realizable by an affine functional."""


def _affine_frame(vertices: np.ndarray) -> tuple[int, ...] | None:
    """d+1 affinely independent vertex indices, or None when the vertices do
    not span R^d.

    Greedy: from vertex 0, add the vertex farthest from the affine span of
    those chosen, as in QR with column pivoting.  A distance below
    _FRAME_EPS times the largest one from vertex 0 counts as none.
    """
    residual = vertices - vertices[0]
    sq = np.einsum("ij,ij->i", residual, residual)
    floor = (_FRAME_EPS**2) * sq.max(initial=0.0)
    frame = [0]
    for _ in range(vertices.shape[1]):
        j = int(np.argmax(sq))
        if not sq[j] > floor:
            return None
        q = residual[j] / np.sqrt(sq[j])
        residual -= np.outer(residual @ q, q)
        sq = np.einsum("ij,ij->i", residual, residual)
        frame.append(j)
    return tuple(frame)


def _frame_swaps(m: np.ndarray, frame: tuple[int, ...] | None) -> np.ndarray | None:
    """Per vertex v, the position in frame of the vertex that v replaces in
    the witness duals' start basis: that of the largest |barycentric weight|
    of v over the frame, so that the frame with v swapped in stays affinely
    independent and well conditioned.  One (d+1)-square solve for all k."""
    if frame is None:
        return None
    weights = np.linalg.solve(m[list(frame)].T, m.T)
    return np.argmax(np.abs(weights), axis=0)


@dataclass(frozen=True)
class StateSpace:
    """Convex polytope of states, vertex representation.

    redundant lists indices (into the deduplicated vertex array) of vertices
    found inside the convex hull of the others; they are kept, not dropped.

    __post_init__ derives read-only data from the vertices once; none of it
    is a dataclass field.  With M = vertex_matrix():
    frame      d+1 affinely independent vertex indices (None when the
               vertices do not span R^d); the witness LPs build their start
               basis on it.
    frame_swap per vertex v, the position in frame of the vertex v replaces
               in that start basis, the argmax of |barycentric weight| of v
               (None without a frame).
    dual_rows  the (d+1, 4k) matrix [-M^T, M^T, M^T, -M^T], the rows that
               every witness dual shares; each dual adds one row of its own.
    """

    vertices: np.ndarray
    name: str = ""
    redundant: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        v = np.array(self.vertices, dtype=float)  # copy: detach from the caller
        if v.ndim != 2 or v.shape[0] < 1:
            raise ValueError(f"vertices must form a nonempty (k, d) array, got {v.shape}")
        m = np.hstack([np.ones((v.shape[0], 1)), v])
        frame = _affine_frame(v)
        swap = _frame_swaps(m, frame)
        rows = np.hstack([-m.T, m.T, m.T, -m.T])
        for array in (v, m, swap, rows):
            if array is not None:
                array.flags.writeable = False
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "_vertex_matrix", m)
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "frame_swap", swap)
        object.__setattr__(self, "dual_rows", rows)

    @property
    def dimension(self) -> int:
        return self.vertices.shape[1]

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    def vertex_matrix(self) -> np.ndarray:
        """Read-only (k, d+1) matrix [1 | V]; row i dotted with coefficients =
        value at vertex i."""
        return self._vertex_matrix

    def __repr__(self) -> str:
        label = self.name or "state space"
        return f"StateSpace({label!r}, d={self.dimension}, vertices={self.n_vertices})"


@dataclass(frozen=True)
class Effect:
    """Affine functional x -> c0 + c . x, stored as (c0, c1, ..., cd)."""

    coefficients: np.ndarray

    def __post_init__(self) -> None:
        c = np.atleast_1d(np.array(self.coefficients, dtype=float))
        if c.ndim != 1 or c.size < 1:
            raise ValueError("coefficients must be a nonempty 1-d vector")
        c.flags.writeable = False
        object.__setattr__(self, "coefficients", c)

    @property
    def dimension(self) -> int:
        return self.coefficients.size - 1

    def __call__(self, point) -> float:
        return evaluate(self, point)

    def vertex_values(self, space: StateSpace) -> np.ndarray:
        if space.dimension != self.dimension:
            raise ValueError(
                f"effect lives in dimension {self.dimension}, space in {space.dimension}"
            )
        return space.vertex_matrix() @ self.coefficients


@dataclass(frozen=True)
class Observable:
    """Finite-outcome observable: effects summing to the unit functional."""

    outcomes: tuple
    effects: tuple[Effect, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "outcomes", tuple(self.outcomes))
        object.__setattr__(self, "effects", tuple(self.effects))

    @property
    def n_outcomes(self) -> int:
        return len(self.effects)


def unit_effect(dimension: int) -> Effect:
    """The functional constantly 1 (the order unit)."""
    c = np.zeros(dimension + 1)
    c[0] = 1.0
    return Effect(c)


def zero_effect(dimension: int) -> Effect:
    return Effect(np.zeros(dimension + 1))


def _point_in_hull(point: np.ndarray, others: np.ndarray,
                   tol: SolverTolerances) -> bool:
    """Is point a convex combination of the rows of others?  LP feasibility."""
    k = others.shape[0]
    if k == 0:
        return False
    rows = np.vstack([others.T, np.ones((1, k))])
    rhs = np.append(point, 1.0)
    return check_feasible(LpProblem(np.zeros(k), rows, (EQ,) * rows.shape[0], rhs), tol)


def _hull_residual_bounds(arr: np.ndarray) -> np.ndarray:
    """Lower bound, per vertex i, on the phase-one residual of
    _point_in_hull(arr[i], the other rows).

    Take u = v_i - centroid, M = max_{j != i} u.v_j and delta = u.v_i - M.
    For weights z >= 0 with residuals r = sum_j z_j v_j - v_i and
    s = sum_j z_j - 1, u.v_i + u.r = sum_j z_j u.v_j <= (1 + s) M, so
    delta <= s M - u.r <= max(|M|, |u|_inf) (|s| + |r|_1).  Phase one
    minimizes the one-sided artificials b - Az over z >= 0, Az <= b (rows
    signed so that b >= 0); that residual is at least min_{z >= 0} |s| +
    |r|_1, hence residual >= delta / max(|M|, |u|_inf).
    O(k*d) per vertex; a bound <= 0 certifies nothing.
    """
    centroid = arr.mean(axis=0)
    bounds = np.zeros(arr.shape[0])
    for i in range(arr.shape[0]):
        u = arr[i] - centroid
        proj = arr @ u
        own = proj[i]
        proj[i] = -np.inf
        top = proj.max()
        scale = max(abs(top), np.abs(u).max())
        if scale > 0.0:
            bounds[i] = (own - top) / scale
    return bounds


def _dedup(arr: np.ndarray, eps: float) -> np.ndarray:
    """Drop each point within eps (max norm) of an earlier kept point.

    Such a pair projects onto w within eps*|w|_1, so a point is compared only
    with the kept points in that window (doubled and padded for rounding) of
    the sorted projection.  w_j = 1/(j + pi) with pi transcendental projects
    distinct integer points, such as hypercube vertices, apart.
    """
    w = 1.0 / (np.arange(arr.shape[1]) + np.pi)
    proj = arr @ w
    order = np.argsort(proj, kind="stable")
    radius = 2.0 * eps * w.sum() + 1e-12 * float((np.abs(arr) @ w).max(initial=0.0))
    lo = np.searchsorted(proj[order], proj - radius)
    hi = np.searchsorted(proj[order], proj + radius, side="right")
    kept = hi - lo == 1  # alone in its window: no near-duplicate anywhere
    for i in np.flatnonzero(~kept):
        near = order[lo[i]:hi[i]]
        near = near[kept[near]]
        kept[i] = not (np.max(np.abs(arr[near] - arr[i]), axis=1, initial=0.0) <= eps).any()
    return arr[kept]


def make_state_space(
    vertices,
    name: str = "",
    tol: SolverTolerances | None = None,
    check_redundant: bool | None = None,
) -> StateSpace:
    """Build a StateSpace from a vertex list.

    Vertices coinciding within eps_geom are deduplicated (first occurrence
    kept).  A remaining vertex inside the convex hull of the others triggers
    a RedundantVertexWarning and is recorded in StateSpace.redundant.  The
    scan skips a vertex that a separating direction certifies as outside
    that hull and runs one small LP for each other vertex; it is skipped
    above REDUNDANCY_CHECK_LIMIT vertices unless check_redundant forces it.
    """
    tol = tol if tol is not None else DEFAULT_TOLERANCES
    try:
        arr = np.asarray(vertices, dtype=float)
    except (ValueError, TypeError) as exc:
        raise ValueError(f"vertices must be a rectangular list of points: {exc}") from None
    if arr.size == 0 and arr.ndim != 2:
        raise ValueError("vertex list is empty")
    if arr.ndim != 2:
        raise ValueError(f"vertices must be a list of equal-length points, got shape {arr.shape}")
    if arr.shape[0] < 1:
        raise ValueError("vertex list is empty")
    bad = np.flatnonzero(~np.isfinite(arr).all(axis=1))
    if bad.size:
        raise ValueError(f"vertex {bad[0]} is not finite: {arr[bad[0]].tolist()}")

    deduped = _dedup(arr, tol.eps_geom)
    k = deduped.shape[0]
    if check_redundant is None:
        check_redundant = k <= REDUNDANCY_CHECK_LIMIT
    redundant: list[int] = []
    if check_redundant and k >= 2:
        certified = _hull_residual_bounds(deduped) > _CERTIFICATE_MARGIN * tol.eps_feas
        for i in map(int, np.flatnonzero(~certified)):
            others = np.delete(deduped, i, axis=0)
            if _point_in_hull(deduped[i], others, tol):
                redundant.append(i)
                warnings.warn(
                    f"vertex {deduped[i].tolist()} (index {i}) lies in the convex hull "
                    "of the other vertices; it is kept but adds only redundant constraints",
                    RedundantVertexWarning,
                    stacklevel=2,
                )
    return StateSpace(vertices=deduped, name=name, redundant=tuple(redundant))


def checked_vertex_values(space: StateSpace, coefficients,
                          tol: SolverTolerances | None = None) -> np.ndarray:
    """The values on the vertices of space of the affine functional with
    these coefficients, checked to be an effect: ValueError on a wrong
    number of coefficients, EffectRangeError naming the first vertex where
    the value leaves [0, 1] (NaN included)."""
    tol = tol if tol is not None else DEFAULT_TOLERANCES
    c = np.atleast_1d(np.asarray(coefficients, dtype=float))
    if c.shape != (space.dimension + 1,):
        raise ValueError(
            f"expected {space.dimension + 1} coefficients for {space!r}, got {c.shape}"
        )
    values = space.vertex_matrix() @ c
    outside = np.flatnonzero(~((values >= -tol.eps_geom) & (values <= 1.0 + tol.eps_geom)))
    if outside.size:  # NaN fails too
        i = int(outside[0])
        raise EffectRangeError(
            f"effect value {values[i]:.12g} at vertex {space.vertices[i].tolist()} "
            f"(index {i}) outside [0, 1]"
        )
    return values


def effect_from_affine(
    space: StateSpace, coefficients, tol: SolverTolerances | None = None
) -> Effect:
    """Validate affine coefficients as an effect on space and wrap them."""
    c = np.atleast_1d(np.asarray(coefficients, dtype=float))
    checked_vertex_values(space, c, tol)
    return Effect(c)


def effect_from_vertex_values(
    space: StateSpace, values, tol: SolverTolerances | None = None
) -> Effect:
    """Interpolate vertex values into affine coefficients.

    The assignment must be realizable by an affine functional: the
    least-squares fit is accepted only if it reproduces every vertex value
    within eps_geom.  Exact on simplices.
    """
    tol = tol if tol is not None else DEFAULT_TOLERANCES
    vals = np.atleast_1d(np.asarray(values, dtype=float))
    if vals.shape != (space.n_vertices,):
        raise ValueError(
            f"expected {space.n_vertices} vertex values, got shape {vals.shape}"
        )
    out_of_range = np.flatnonzero(~((vals >= -tol.eps_geom) & (vals <= 1.0 + tol.eps_geom)))
    if out_of_range.size:
        bad = int(out_of_range[0])
        raise EffectRangeError(
            f"vertex value {vals[bad]:.12g} at index {bad} outside [0, 1]"
        )
    M = space.vertex_matrix()
    coeffs, *_ = np.linalg.lstsq(M, vals, rcond=None)
    residual = M @ coeffs - vals
    worst = int(np.argmax(np.abs(residual)))
    if abs(residual[worst]) > tol.eps_geom:
        raise RepresentabilityError(
            "no affine functional takes these vertex values: residual "
            f"{residual[worst]:.3g} at vertex {space.vertices[worst].tolist()} "
            f"(index {worst})"
        )
    return Effect(coeffs)


def evaluate(effect: Effect, point) -> float:
    p = np.asarray(point, dtype=float).reshape(-1)
    if p.shape != (effect.dimension,):
        raise ValueError(
            f"point of dimension {p.shape} does not match effect dimension {effect.dimension}"
        )
    return float(effect.coefficients[0] + effect.coefficients[1:] @ p)


def leq(f: Effect, g: Effect, space: StateSpace,
        tol: SolverTolerances | None = None) -> bool:
    """Pointwise order f <= g on the polytope, decided on the vertices."""
    tol = tol if tol is not None else DEFAULT_TOLERANCES
    return bool(np.all(f.vertex_values(space) <= g.vertex_values(space) + tol.eps_geom))


def complement(f: Effect) -> Effect:
    """u - f, the other outcome of the two-outcome observable {f, u - f}."""
    c = -f.coefficients.copy()
    c[0] = 1.0 - f.coefficients[0]
    return Effect(c)


def dichotomic_observable(f: Effect) -> Observable:
    return Observable(outcomes=(1, 0), effects=(f, complement(f)))


def observable_diagnostics(
    obs: Observable, space: StateSpace, tol: SolverTolerances | None = None
) -> list[str]:
    """Reasons obs fails to be an observable on space; empty when valid."""
    tol = tol if tol is not None else DEFAULT_TOLERANCES
    issues: list[str] = []
    if len(obs.outcomes) != len(obs.effects):
        issues.append(
            f"{len(obs.outcomes)} outcome labels but {len(obs.effects)} effects"
        )
    if not obs.effects:
        issues.append("observable has no effects")
        return issues
    total = np.zeros(space.dimension + 1)
    for idx, eff in enumerate(obs.effects):
        try:
            effect_from_affine(space, eff.coefficients, tol)
        except (ValueError, EffectRangeError) as exc:
            issues.append(f"component {idx}: {exc}")
            continue
        total += eff.coefficients
    unit = unit_effect(space.dimension).coefficients
    dev = float(np.max(np.abs(total - unit)))
    if dev > tol.eps_geom:
        issues.append(
            f"components sum to {total.tolist()} instead of the unit functional "
            f"(max coefficient deviation {dev:.3g})"
        )
    return issues


def is_observable(obs: Observable, space: StateSpace,
                  tol: SolverTolerances | None = None) -> bool:
    return not observable_diagnostics(obs, space, tol)


def coordinate_effect(space: StateSpace, axis: int,
                      tol: SolverTolerances | None = None) -> Effect:
    """Coordinate functional rescaled to [0, 1] over the vertex set."""
    tol = tol if tol is not None else DEFAULT_TOLERANCES
    if not 0 <= axis < space.dimension:
        raise ValueError(f"axis {axis} out of range for dimension {space.dimension}")
    column = space.vertices[:, axis]
    lo, hi = float(column.min()), float(column.max())
    if hi - lo <= tol.eps_geom:
        raise ValueError(f"coordinate {axis} is constant over the vertex set")
    c = np.zeros(space.dimension + 1)
    c[0] = -lo / (hi - lo)
    c[axis + 1] = 1.0 / (hi - lo)
    return Effect(c)


def separating_effect(space: StateSpace, i: int, j: int,
                      tol: SolverTolerances | None = None) -> Effect:
    """An effect taking different values on vertices i and j.

    Exists for any two distinct vertices: some coordinate differs, and its
    rescaled functional separates them (states are separated by effects).
    """
    tol = tol if tol is not None else DEFAULT_TOLERANCES
    diff = np.abs(space.vertices[i] - space.vertices[j])
    if diff.size == 0 or diff.max(initial=0.0) <= tol.eps_geom:
        raise ValueError(f"vertices {i} and {j} coincide; no effect separates them")
    return coordinate_effect(space, int(np.argmax(diff)), tol)
