"""State spaces, effects and finite-outcome observables.

A state space is a convex polytope given by its vertices.  An effect is an
affine functional with values in [0, 1] on the polytope; by convexity it is
enough to check the vertices, so every validation below is a vertex sweep.
Effects are stored as d+1 affine coefficients (constant term first), which
keeps non-simplex spaces unambiguous.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

# check_feasible stays bound here: perfbench --trace 1 rebinds it by name.
from .lp import check_feasible
from .tolerances import DEFAULT_TOLERANCES, SolverTolerances

# A vertex joins the affine frame only if its distance from the span of the
# frame so far exceeds this fraction of the largest distance from vertex 0;
# below it the space counts as lying in the affine hull of the frame so far.
_FRAME_EPS = 1e-9


class EffectRangeError(ValueError):
    """An affine functional leaves [0, 1] somewhere on the state space."""


class RepresentabilityError(ValueError):
    """A vertex-value assignment is not realizable by an affine functional."""


def _affine_frame(vertices: np.ndarray):
    """(frame, basis, coordinates) of the affine hull of the vertices, of
    dimension r: r+1 affinely independent vertex indices starting with 0;
    None and the vertices themselves when r = d, else the orthonormal (d, r)
    basis Q of the hull's directions and the coordinates (V - v0) Q.

    Greedy: from vertex 0, add the vertex farthest from the affine span of
    those chosen, as in QR with column pivoting; the unit directions it
    projects out are Q.  A distance below _FRAME_EPS times the largest one
    from vertex 0 counts as none, and ends the frame.
    """
    residual = vertices - vertices[0]
    sq = np.einsum("ij,ij->i", residual, residual)
    floor = (_FRAME_EPS**2) * sq.max(initial=0.0)
    frame, directions = [0], []
    for _ in range(vertices.shape[1]):
        j = int(np.argmax(sq))
        if not sq[j] > floor:
            basis = np.array(directions).reshape(-1, vertices.shape[1]).T
            return tuple(frame), basis, (vertices - vertices[0]).dot(basis)
        q = residual[j] / np.sqrt(sq[j])
        residual -= np.outer(residual @ q, q)
        sq = np.einsum("ij,ij->i", residual, residual)
        frame.append(j)
        directions.append(q)
    return tuple(frame), None, vertices


def _vertex_array(vertices) -> np.ndarray:
    """vertices as a float (k, d) array of its own, k >= 1; ValueError on a
    ragged list, another shape, an integer too large for a double, or the
    first vertex that is not finite."""
    try:
        v = np.array(vertices, dtype=float)
    except OverflowError as exc:
        raise ValueError(f"vertices hold a number too large for a double: {exc}") from None
    except (ValueError, TypeError) as exc:
        raise ValueError(f"vertices must be a rectangular list of points: {exc}") from None
    if v.ndim != 2 or v.shape[0] < 1:
        raise ValueError(f"vertices must form a nonempty (k, d) array, got shape {v.shape}")
    bad = np.flatnonzero(~np.isfinite(v).all(axis=1))
    if bad.size:
        raise ValueError(f"vertex {bad[0]} is not finite: {v[bad[0]].tolist()}")
    return v


def _count(value, what: str) -> int:
    """value as an int; TypeError naming what unless it is an integer."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{what} must be an integer, got {value!r}") from None


def _frame_swaps(m: np.ndarray, frame: tuple[int, ...]) -> np.ndarray:
    """Per vertex v, the position in frame of the vertex that v replaces in
    the witness duals' start basis: that of the largest |barycentric weight|
    of v over the frame, so that the frame with v swapped in stays affinely
    independent and well conditioned.  One (r+1)-square solve for all k."""
    weights = np.linalg.solve(m[list(frame)].T, m.T)
    return np.argmax(np.abs(weights), axis=0)


# The pairs (X, Y) of witness-dual row blocks (alpha, beta, gamma, delta =
# 0, 1, 2, 3) whose weights cancel in M^T(-alpha + beta + gamma - delta) when
# equal on one vertex; row p of _PAIR_SUMS adds blocks X_p and Y_p of a (4, k)
# array.  dual_start builds the witness duals' start basis on them.
_X_BLOCKS, _Y_BLOCKS = np.array([(1, 3), (2, 3), (0, 1), (0, 2)]).T
_PAIR_SUMS = np.eye(4)[_X_BLOCKS] + np.eye(4)[_Y_BLOCKS]


class WitnessDual(NamedTuple):
    """The parts of one witness dual that no effect pair changes, read-only,
    for a row of its own, column^T, and its cost, +1 or -1:
    rows          (r+2, 4k): dual_rows over column^T;
    rhs           (r+2,): 0, and -cost on the last row;
    denominators  (4, k): -cost * (column_X(v) + column_Y(v)) per start pair
                  p = (X, Y) and vertex v; where it is > 0, the weight
                  1/denominators[p, v] on both blocks of v meets the rows.
    """

    rows: np.ndarray
    rhs: np.ndarray
    denominators: np.ndarray


def witness_dual(dual_rows: np.ndarray, column: np.ndarray, cost: float) -> WitnessDual:
    """The WitnessDual of the row column^T and the cost over dual_rows."""
    rows = np.vstack([dual_rows, column])
    rhs = np.zeros(rows.shape[0])
    rhs[-1] = -cost
    denominators = -cost * (_PAIR_SUMS @ column.reshape(4, -1))
    for array in (rows, rhs, denominators):
        array.flags.writeable = False
    return WitnessDual(rows, rhs, denominators)


def dual_start(space: StateSpace, rhs: np.ndarray, dual: WitnessDual) -> tuple[int, ...]:
    """A feasible basis of dual for a pair's rhs (4k,): of the start points
    of dual.denominators, the one of least value c * (rhs_X(v) + rhs_Y(v))
    (for lambda0, the trivial bound max_v max(e(v), f(v))).  Its basis is
    block X on space.frame with v swapped in at space.frame_swap[v], plus
    Y_v, nonsingular as that frame stays affinely independent."""
    k = space.n_vertices
    value = np.divide(_PAIR_SUMS.dot(rhs.reshape(4, k)), dual.denominators,
                      out=np.full((4, k), np.inf), where=dual.denominators > 0.0)
    pair, v = divmod(int(value.argmin()), k)
    chosen = list(space.frame)
    chosen[space.frame_swap[v]] = v
    x, y = int(_X_BLOCKS[pair]) * k, int(_Y_BLOCKS[pair]) * k
    return tuple(x + u for u in chosen) + (y + v,)


def lift_witness(space: StateSpace, h: np.ndarray) -> np.ndarray:
    """The ambient coefficients of the functional h over space.dual_rows."""
    if space.hull_basis is None:
        return h
    c = space.hull_basis.dot(h[1:])
    return np.append(h[0] - c.dot(space.vertices[0]), c)


@dataclass(frozen=True)
class StateSpace:
    """Convex polytope of states, vertex representation.

    The vertices are copied and checked as make_state_space checks them
    (_vertex_array), but duplicates are kept.

    __post_init__ derives read-only data from the vertices once; none of it
    is a dataclass field.  The vertices span an affine hull of dimension
    r <= d, and every space has a frame of it:
    frame      r+1 affinely independent vertex indices, vertex 0 first; the
               witness LPs build their start basis on it (dual_start).
    hull_basis None when r = d, else the orthonormal (d, r) basis Q of the
               hull's directions.
    frame_swap per vertex v, the position in frame of the vertex v replaces
               in that start basis, the argmax of |barycentric weight| of v.
    dual_rows  the (r+1, 4k) matrix [-R^T, R^T, R^T, -R^T], the rows that
               every witness dual shares; each dual adds one row of its own.
               R is vertex_matrix() = [1 | V] when r = d, else the reduced
               [1 | (V - v0) Q], v0 = vertex 0, so that no direction of the
               duals changes nothing.  A witness h over R has the ambient
               coefficients c = Q h[1:], c0 = h[0] - c . v0 (lift_witness);
               effects are evaluated on the ambient vertex_matrix().
    lambda_dual
               the WitnessDual of compute_lambda0, whose own row is the
               lambda column [0]*3k + [-1]*k at cost 1; dual_rows is a view
               of its first r+1 rows.
    slack_dual the WitnessDual of eq3_feasible's least uniform slack, own
               row [-1]*4k at cost 1; built on first use, then kept.
    half_width half the largest coordinate range of the vertices.
    """

    vertices: np.ndarray
    name: str = ""

    def __post_init__(self) -> None:
        v = _vertex_array(self.vertices)  # a copy: detached from the caller
        k = v.shape[0]
        m = np.hstack([np.ones((k, 1)), v])
        frame, basis, coordinates = _affine_frame(v)
        reduced = m if basis is None else np.hstack([np.ones((k, 1)), coordinates])
        swap = _frame_swaps(reduced, frame)
        lambda_dual = witness_dual(np.hstack([-reduced.T, reduced.T, reduced.T, -reduced.T]),
                                   np.concatenate([np.zeros(3 * k), -np.ones(k)]), 1.0)
        for array in (v, m, swap) + (() if basis is None else (basis,)):
            array.flags.writeable = False
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "_vertex_matrix", m)
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "hull_basis", basis)
        object.__setattr__(self, "frame_swap", swap)
        object.__setattr__(self, "dual_rows", lambda_dual.rows[:-1])
        object.__setattr__(self, "lambda_dual", lambda_dual)
        object.__setattr__(self, "half_width", 0.5 * float(np.ptp(v, axis=0).max(initial=0.0)))

    @cached_property
    def slack_dual(self) -> WitnessDual:
        return witness_dual(self.dual_rows, -np.ones(4 * self.n_vertices), 1.0)

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
        c = _floats(self.coefficients, "coefficients")
        if c.ndim != 1 or c.size < 1:
            raise ValueError("coefficients must be a nonempty 1-d vector")
        c.flags.writeable = False
        object.__setattr__(self, "coefficients", c)

    @property
    def dimension(self) -> int:
        return self.coefficients.size - 1

    def __call__(self, point) -> float:
        p = np.asarray(point, dtype=float).reshape(-1)
        if p.shape != (self.dimension,):
            raise ValueError(f"point has {p.size} coordinates, effect dimension {self.dimension}")
        return float(self.coefficients[0] + self.coefficients[1:] @ p)

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


def make_state_space(vertices, name: str = "",
                     tol: SolverTolerances = DEFAULT_TOLERANCES) -> StateSpace:
    """Build a StateSpace from a vertex list.

    The vertices are checked as StateSpace checks them (_vertex_array), then
    those coinciding within eps_geom are deduplicated (first occurrence
    kept).  A vertex inside the convex hull of the others is kept, and no LP
    checks for one: it only repeats constraints of the witness system, which
    reads the effects on the vertices.
    """
    return StateSpace(vertices=_dedup(_vertex_array(vertices), tol.eps_geom), name=name)


def _floats(values, what: str) -> np.ndarray:
    """values as a float array of its own, at least 1-d; ValueError on an
    integer too large."""
    try:
        return np.atleast_1d(np.array(values, dtype=float))
    except OverflowError as exc:
        raise ValueError(f"{what} hold a number too large for a double: {exc}") from None


def _checked_range(space: StateSpace, values: np.ndarray, tol: SolverTolerances) -> np.ndarray:
    """values, one per vertex of space, or EffectRangeError naming the first
    vertex where a value leaves [0, 1] by more than eps_geom (NaN too)."""
    inside = (values >= -tol.eps_geom) & (values <= 1.0 + tol.eps_geom)
    if not inside.all():
        i = int(np.flatnonzero(~inside)[0])
        raise EffectRangeError(
            f"effect value {values[i]:.12g} at vertex {space.vertices[i].tolist()} "
            f"(index {i}) outside [0, 1]"
        )
    return values


def checked_vertex_values(space: StateSpace, coefficients,
                          tol: SolverTolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """The values on the vertices of space of the affine functional with
    these coefficients: ValueError on a wrong number of coefficients, and
    EffectRangeError as _checked_range raises it."""
    c = _floats(coefficients, "coefficients")
    if c.shape != (space.dimension + 1,):
        raise ValueError(
            f"expected {space.dimension + 1} coefficients for {space!r}, got {c.shape}"
        )
    return _checked_range(space, space.vertex_matrix().dot(c), tol)


def effect_from_affine(space: StateSpace, coefficients,
                       tol: SolverTolerances = DEFAULT_TOLERANCES) -> Effect:
    """Validate affine coefficients as an effect on space and wrap them."""
    checked_vertex_values(space, coefficients, tol)
    return Effect(coefficients)


def effect_from_vertex_values(space: StateSpace, values,
                              tol: SolverTolerances = DEFAULT_TOLERANCES) -> Effect:
    """Interpolate vertex values into affine coefficients.

    The values must lie in [0, 1], and the assignment must be realizable
    by an affine functional: the least-squares fit is accepted only if it
    reproduces every vertex value within eps_geom.  Exact on simplices.
    """
    vals = _floats(values, "vertex values")
    if vals.shape != (space.n_vertices,):
        raise ValueError(
            f"expected {space.n_vertices} vertex values, got shape {vals.shape}"
        )
    _checked_range(space, vals, tol)
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


def leq(f: Effect, g: Effect, space: StateSpace,
        tol: SolverTolerances = DEFAULT_TOLERANCES) -> bool:
    """Pointwise order f <= g on the polytope, decided on the vertices."""
    return bool(np.all(f.vertex_values(space) <= g.vertex_values(space) + tol.eps_geom))


def complement(f: Effect) -> Effect:
    """u - f, the other outcome of the two-outcome observable {f, u - f}."""
    c = -f.coefficients.copy()
    c[0] = 1.0 - f.coefficients[0]
    return Effect(c)


def dichotomic_observable(f: Effect) -> Observable:
    return Observable(outcomes=(1, 0), effects=(f, complement(f)))


def observable_diagnostics(obs: Observable, space: StateSpace,
                           tol: SolverTolerances = DEFAULT_TOLERANCES) -> list[str]:
    """Reasons obs fails to be an observable on space; empty when valid."""
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


def coordinate_effect(space: StateSpace, axis: int,
                      tol: SolverTolerances = DEFAULT_TOLERANCES) -> Effect:
    """Coordinate functional rescaled to [0, 1] over the vertex set; TypeError
    unless axis is an integer, ValueError unless it is in 0..d-1."""
    axis = _count(axis, "axis")
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
                      tol: SolverTolerances = DEFAULT_TOLERANCES) -> Effect:
    """An effect taking different values on vertices i and j.

    Exists for any two distinct vertices: some coordinate differs, and its
    rescaled functional separates them (states are separated by effects).
    TypeError unless i and j are integers, ValueError unless in 0..k-1.
    """
    i, j = _count(i, "vertex index i"), _count(j, "vertex index j")
    for v in (i, j):
        if not 0 <= v < space.n_vertices:
            raise ValueError(f"vertex {v} out of range for {space.n_vertices} vertices")
    diff = np.abs(space.vertices[i] - space.vertices[j])
    if diff.size == 0 or diff.max(initial=0.0) <= tol.eps_geom:
        raise ValueError(f"vertices {i} and {j} coincide; no effect separates them")
    return coordinate_effect(space, int(np.argmax(diff)), tol)
