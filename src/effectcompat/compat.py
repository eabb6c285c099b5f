"""Joint measurability of effect pairs, decided by linear programming.

Two effects e and f are jointly measurable exactly when some effect g
satisfies g <= e, g <= f and e + f <= g + u.  Relaxing the last inequality
to e + f <= g + lambda*u and minimizing lambda gives a single number,
lambda0, that decides the question: the pair is compatible iff lambda0 <= 1.
Since lambda enters the constraints linearly and all inequalities reduce to
vertex checks on a polytope, lambda0 is the optimum of one small LP over
the affine coefficients of g and lambda, and the minimum is attained: the
optimal g comes out of the LP as a witness.  Every LP over the witness
system (lambda0, the depolarizing threshold, the least slack behind
eq3_feasible) is solved as its dual, r+2 rows over weights on the vertices
of a space whose affine hull has dimension r, from core.dual_start's basis,
and g comes out as its simplex multipliers, lifted to ambient coefficients
by core.lift_witness (see _solve_witness_dual).  Only lambda0 on spaces of
at most 4 vertices is solved as the primal.

lambda0 is always in [0, 2] (g = 0, lambda = 2 is feasible for any pair),
and for an incompatible pair sigma0 = 2*(1 - 1/lambda0) in (0, 1] measures
the least outcome-mixing noise that restores compatibility.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Effect,
    Observable,
    StateSpace,
    WitnessDual,
    checked_vertex_values,
    dual_start,
    effect_from_affine,
    lift_witness,
    unit_effect,
    witness_dual,
)
# solve_lp, check_feasible and effect_from_affine stay bound here: perfbench
# --trace 1 rebinds them by name.
from .lp import LE, LpInputError, LpProblem, SolverFailure, check_feasible, solve_lp
from .tolerances import DEFAULT_TOLERANCES, SolverTolerances

# The depolarizing LP is posed this far inside lambda0 <= 1 + eps_compat, so the
# smeared pair at the returned t, rounded differently, still reads compatible.
# lambda0 is convex in t with lambda0(0) = 1/2, so t moves by at most 2e-13.
_THRESHOLD_MARGIN = 1e-13

# compute_lambda0 solves the lambda LP as its dual on spaces with at least this
# many vertices, and below as the 4k-row primal on a dense tableau, the one
# dense-tableau LP in the package.  Median per call over 20 seeded pairs (AMD
# EPYC, one BLAS thread, best of four runs), dense / dual from the start
# basis: 167 / 95 us at gbit (k=4), 209 / 101 at polygon-5, 238 / 100 at
# polygon-6, 278 / 114 at polygon-7, 334 / 106 at hypercube-3, 604 / 128 at
# polygon-16.  The dense path
# stays only because the benchmark's CLI goldens pin its pivots below 5
# vertices (check-gbit's lp_iterations, joint-simplex-3's witness digits); it
# goes once the benchmark refresh of ROADMAP item 1 re-captures them.
_DUAL_MIN_VERTICES = 5


class IncompatibilityError(ValueError):
    """Raised when an operation requires a compatible pair but lambda0 > 1."""

    def __init__(self, message: str, lambda0: float):
        super().__init__(message)
        self.lambda0 = lambda0


class CrossCheckError(RuntimeError):
    """An internal consistency check between independent routes failed."""


@dataclass(frozen=True)
class CompatReport:
    """Outcome of a compatibility computation for one effect pair.

    witness is the effect g attaining the minimum: g <= e, g <= f and
    e + f <= g + lambda0*u hold on every vertex up to solver tolerance, for
    the values of e and f with any in [-eps_geom, 0) clamped to 0.
    lp_iterations counts the simplex pivots of the lambda LP: from the
    dual's start basis (0 when the trivial bound max_v max(e, f) is already
    optimal there), or of both phases of the dense primal below 5 vertices.
    """

    lambda0: float
    sigma0: float
    compatible: bool
    witness: Effect
    lp_iterations: int
    tolerances: SolverTolerances


@dataclass(frozen=True)
class MarkovKernel2x2:
    """Column-stochastic 2x2 mixing of a two-outcome observable."""

    mu11: float
    mu12: float
    mu21: float
    mu22: float

    def __post_init__(self) -> None:
        for name in ("mu11", "mu12", "mu21", "mu22"):
            v = getattr(self, name)
            if not -1e-12 <= v <= 1.0 + 1e-12:
                raise ValueError(f"kernel entry {name}={v!r} outside [0, 1]")
        if abs(self.mu11 + self.mu21 - 1.0) > 1e-12 or abs(self.mu12 + self.mu22 - 1.0) > 1e-12:
            raise ValueError(
                "kernel columns must sum to 1: "
                f"got {self.mu11 + self.mu21!r} and {self.mu12 + self.mu22!r}"
            )


def _validated_pair(space: StateSpace, e: Effect, f: Effect,
                    tol: SolverTolerances) -> tuple[np.ndarray, np.ndarray]:
    """The vertex values of e and f, each checked as an effect, with a value
    in [-eps_geom, 0) raised to 0: below 0 it leaves no g with 0 <= g <= e."""
    return (np.maximum(checked_vertex_values(space, e.coefficients, tol), 0.0),
            np.maximum(checked_vertex_values(space, f.coefficients, tol), 0.0))


def _split(a: np.ndarray) -> np.ndarray:
    """Columns a_0, -a_0, a_1, -a_1, ...: each free variable as y+ - y-."""
    return np.stack([a, -a], axis=-1).reshape(*a.shape[:-1], -1)


def _free_point(y: np.ndarray) -> np.ndarray:
    """The free variables x = y+ - y- of an LP posed through _split."""
    return y[0::2] - y[1::2]


def _witness_rhs(ev: np.ndarray, fv: np.ndarray, level: float) -> np.ndarray:
    """rhs of the four row blocks at a fixed level: 0, e, f, level - (e + f).

    The witness system space.dual_rows^T g + column s <= rhs, over free g and
    one more variable s, is g >= 0, g <= e, g <= f, e + f - g <= level per
    vertex.  For lambda0, level is 0 and column is [0]*3k + [-1]*k, the last
    row of space.lambda_dual.rows: per vertex, e(v)+f(v)-g(v) <= lambda.
    """
    return np.concatenate([np.zeros(ev.size), ev, fv, level - (ev + fv)])


def _lambda_problem(space: StateSpace, ev: np.ndarray, fv: np.ndarray) -> LpProblem:
    """The lambda LP as the dense tableau solves it, each free variable split:
    minimize lambda over the witness system's rows [dual_rows^T | column],
    that is space.lambda_dual.rows^T, g in the coordinates of
    space.dual_rows.  g <= 1 is implied by g <= e, so the optimal g is
    automatically an effect."""
    objective = np.append(np.zeros(space.dual_rows.shape[0]), 1.0)
    return LpProblem(_split(objective), _split(space.lambda_dual.rows.T),
                     _witness_rhs(ev, fv, 0.0))


def _solve_witness_dual(space: StateSpace, rhs: np.ndarray, dual: WitnessDual,
                        tol: SolverTolerances, name: str) -> tuple[float, np.ndarray, int]:
    """The optimal s, the ambient witness coefficients g and the pivot count
    of minimize cost * s subject to the witness system (cost is +1 or -1),
    solved as its dual: minimize rhs . w subject to A^T w = -objective, w >= 0.

    w = (alpha, beta, gamma, delta) weighs the four row blocks per vertex,
    and the dual's value is -cost * s.  dual holds the rest of the LP, built
    once per dual (for lambda0, once per space), so a pair brings only rhs.
    The solve starts at the basis of core.dual_start; a start the solver
    refuses raises ValueError naming the space and the failed condition,
    before any pivot, and a SolverFailure of the solve is raised again
    naming the space and the LP.  The simplex multipliers are a primal
    point (h, s) with A (h, s) <= rhs, checked on all 4k primal rows at the
    optimal s in O(k*r); a violation raises SolverFailure.  h is returned
    lifted by core.lift_witness.  Every caller's primal is feasible and
    bounded, so its dual is too.
    """
    rows = dual.rows
    try:
        result = solve_lp(LpProblem(rhs, rows, dual.rhs, dual_start(space, rhs, dual)), tol)
    except LpInputError as exc:
        raise ValueError(f"{space!r}: the witness dual for {name} cannot start: {exc}") from exc
    except SolverFailure as exc:
        raise SolverFailure(f"{space!r}: the witness dual for {name} failed: {exc}") from exc
    s = dual.rhs.item(-1) * result.value  # -cost times the dual's value
    g = result.multipliers[:-1]
    residual = space.dual_rows.T @ g + rows[-1] * s - rhs
    violated = residual > tol.eps_feas
    if violated.any():
        i = int(np.flatnonzero(violated)[0])
        raise SolverFailure(f"witness at {name} = {s!r} violates constraint {i} "
                            f"({LE} residual {residual[i]:.3e})")
    return s, lift_witness(space, g), result.iterations


def _witness_slack(space: StateSpace, e: Effect, f: Effect, tol: SolverTolerances,
                   lam: float) -> tuple[float, np.ndarray, int]:
    """The least uniform slack z with which some g meets every row of the
    witness system at level lam (z <= 0 when one meets them all strictly),
    that g's coefficients and the pivot count; e and f are validated first."""
    rhs = _witness_rhs(*_validated_pair(space, e, f, tol), lam)
    return _solve_witness_dual(space, rhs, space.slack_dual, tol, "z")


def eq3_feasible(space: StateSpace, e: Effect, f: Effect,
                 tol: SolverTolerances = DEFAULT_TOLERANCES, lam: float = 1.0) -> bool:
    """Does some effect g satisfy g <= e, g <= f, e + f <= g + lam*u within
    eps_feas on every vertex?  One dual LP: its least uniform slack z <= eps_feas.
    A lam that is not finite raises ValueError naming it, before any LP.
    """
    if not np.isfinite(lam):
        raise ValueError(f"lam must be finite, got {lam!r}")
    return bool(_witness_slack(space, e, f, tol, lam)[0] <= tol.eps_feas)


def compute_lambda0(space: StateSpace, e: Effect, f: Effect,
                    tol: SolverTolerances = DEFAULT_TOLERANCES) -> CompatReport:
    """Minimal lambda admitting a witness g, with the witness attached.

    The LP is always feasible (g = 0, lambda = 2) and bounded below by
    max_v max(e, f) >= 0, so a SolverFailure from it is a solver fault.
    With at least _DUAL_MIN_VERTICES vertices its dual is solved, r+2
    equality rows over 4k vertex weights (r the dimension of the vertices'
    affine hull), by the revised simplex method from the dual point of the
    trivial bound: lambda0 is the dual's value and the witness its simplex
    multipliers, checked on all 4k primal rows and lifted to ambient
    coefficients.  Below that, the 4k-row primal over the same rows is
    solved on a dense tableau.  lp_iterations counts the simplex pivots of
    the phases that ran.
    """
    return _lambda0_report(space, *_validated_pair(space, e, f, tol), tol)


def _lambda0_report(space: StateSpace, ev: np.ndarray, fv: np.ndarray,
                    tol: SolverTolerances) -> CompatReport:
    """compute_lambda0 from the vertex values of a validated pair."""
    if space.n_vertices >= _DUAL_MIN_VERTICES:
        s, g, iterations = _solve_witness_dual(space, _witness_rhs(ev, fv, 0.0),
                                               space.lambda_dual, tol, "lambda0")
        lambda0 = max(0.0, s)
    else:
        result = solve_lp(_lambda_problem(space, ev, fv), tol)
        lambda0 = max(0.0, float(result.value))
        g, iterations = lift_witness(space, _free_point(result.point)[:-1]), result.iterations
    return CompatReport(
        lambda0=lambda0,
        sigma0=sigma0(lambda0) if lambda0 > 0.0 else 0.0,
        compatible=bool(lambda0 <= 1.0 + tol.eps_compat),
        witness=Effect(g),
        lp_iterations=iterations,
        tolerances=tol,
    )


def is_compatible(space: StateSpace, e: Effect, f: Effect,
                  tol: SolverTolerances = DEFAULT_TOLERANCES,
                  cross_check: bool = False) -> bool:
    """lambda0 <= 1 + eps_compat.

    With cross_check=True the verdict is compared against the least slack z
    of the witness system at lambda = 1 + eps_compat, its own threshold, one
    more dual LP: compatible needs z <= eps_feas, incompatible z > 0.  A
    mismatch raises CrossCheckError (debug aid, off by default).
    """
    report = compute_lambda0(space, e, f, tol)
    if cross_check:
        _check_scaled_verdict(space, e, f, tol, 1.0, report.compatible)
    return report.compatible


def _check_scaled_verdict(space: StateSpace, e: Effect, f: Effect, tol: SolverTolerances,
                          k: float, compatible: bool) -> None:
    """Raise CrossCheckError unless e/k, f/k are compatible exactly when expected.
    By homogeneity that is the e, f system at lambda = k*(1 + eps_compat): its
    least slack z is at most eps_feas if compatible, and positive if not."""
    z = _witness_slack(space, e, f, tol, k * (1.0 + tol.eps_compat))[0]
    agrees = z <= tol.eps_feas if compatible else z > 0.0
    if not agrees:
        raise CrossCheckError(f"effects scaled by 1/{k!r} should be {'' if compatible else 'in'}"
                              "compatible, but their witness system says otherwise")


def sigma0(lambda0: float) -> float:
    """Least mixing noise restoring compatibility: max(0, 2*(1 - 1/lambda0)).

    Clamped at 0 for lambda0 < 1, where no noise is needed.
    """
    if not 0.0 < lambda0 < np.inf:  # NaN fails too
        raise ValueError(f"lambda0 must be positive and finite, got {lambda0!r}")
    return max(0.0, 2.0 * (1.0 - 1.0 / lambda0))


def scale_effect(effect: Effect, factor: float) -> Effect:
    """Pointwise rescaling factor * effect; valid for factor in [0, 1]."""
    return Effect(effect.coefficients * factor)


def joint_observable_from_witness(space: StateSpace, e: Effect, f: Effect, g: Effect,
                                  tol: SolverTolerances = DEFAULT_TOLERANCES) -> Observable:
    """Four-outcome observable {g, e-g, f-g, u-e-f+g} with margins e and f.

    g must satisfy g <= e, g <= f and e + f <= g + u on every vertex
    (within eps_feas); each of those inequalities is exactly the
    nonnegativity of one component.
    """
    ev, fv = _validated_pair(space, e, f, tol)
    gv = checked_vertex_values(space, g.coefficients, tol)
    for label, residual in (
        ("g <= e", ev - gv),
        ("g <= f", fv - gv),
        ("e + f <= g + u", gv + 1.0 - (ev + fv)),
    ):
        worst = int(np.argmin(residual))
        if residual[worst] < -tol.eps_feas:
            raise ValueError(
                f"witness violates {label} at vertex "
                f"{space.vertices[worst].tolist()} (index {worst}) "
                f"by {-residual[worst]:.3g}"
            )
    ce, cf, cg = e.coefficients, f.coefficients, g.coefficients
    cu = unit_effect(space.dimension).coefficients
    components = (
        Effect(cg),
        Effect(ce - cg),
        Effect(cf - cg),
        Effect(cu - ce - cf + cg),
    )
    return Observable(outcomes=((1, 1), (1, 0), (0, 1), (0, 0)), effects=components)


def joint_observable(space: StateSpace, e: Effect, f: Effect,
                     tol: SolverTolerances = DEFAULT_TOLERANCES
                     ) -> tuple[Observable, CompatReport]:
    """Construct a joint observable for a compatible pair.

    Uses the lambda0-optimal witness when lambda0 <= 1.  For pairs that are
    compatible only within eps_compat, the witness is the g of the least
    uniform slack z at lambda = 1 (the eq3_feasible LP), which absorbs
    solver noise on boundary pairs.  Raises IncompatibilityError when
    lambda0 > 1 + eps_compat, or when z > eps_feas: no witness at lambda = 1.
    """
    report = compute_lambda0(space, e, f, tol)
    if not report.compatible:
        raise IncompatibilityError(
            f"effects are incompatible: lambda0 = {report.lambda0:.12g} > 1", report.lambda0
        )
    g = report.witness
    if report.lambda0 > 1.0:
        z, coefficients, _ = _witness_slack(space, e, f, tol, 1.0)
        if z > tol.eps_feas:
            raise IncompatibilityError(
                f"effects are compatible only within eps_compat = {tol.eps_compat:g}: "
                f"lambda0 = {report.lambda0:.12g} > 1 and no witness exists at lambda = 1",
                report.lambda0,
            )
        g = Effect(coefficients)
    return joint_observable_from_witness(space, e, f, g, tol), report


def scaling_kernel(k: float) -> MarkovKernel2x2:
    """Kernel shrinking the first outcome's effect to e/k; k = 1 is no noise.

    As k grows the smeared effect drifts to 0 and its complement to u.
    """
    if not 1.0 <= k < np.inf:  # NaN fails too
        raise ValueError(f"scaling parameter must be finite and >= 1, got {k!r}")
    return MarkovKernel2x2(mu11=1.0 / k, mu12=0.0, mu21=1.0 - 1.0 / k, mu22=1.0)


def depolarizing_kernel(t: float) -> MarkovKernel2x2:
    """Doubly stochastic kernel mixing toward the trivial effect u/2.

    Smearing {e, u-e} with it yields t*e + (1-t)*u/2; t = 1 is no noise,
    t = 0 the fully mixed observable.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"depolarizing parameter must be in [0, 1], got {t!r}")
    return MarkovKernel2x2(
        mu11=(1.0 + t) / 2.0,
        mu12=(1.0 - t) / 2.0,
        mu21=(1.0 - t) / 2.0,
        mu22=(1.0 + t) / 2.0,
    )


def smear(obs: Observable, kernel: MarkovKernel2x2) -> Observable:
    """Noisy version of a two-outcome observable under a Markov kernel.

    Column stochasticity guarantees the result is again an observable.
    """
    if obs.n_outcomes != 2:
        raise ValueError(f"smearing needs a two-outcome observable, got {obs.n_outcomes}")
    ce = obs.effects[0].coefficients
    cp = obs.effects[1].coefficients
    return Observable(
        outcomes=obs.outcomes,
        effects=(
            Effect(kernel.mu11 * ce + kernel.mu12 * cp),
            Effect(kernel.mu21 * ce + kernel.mu22 * cp),
        ),
    )


def min_scaling_noise(space: StateSpace, e: Effect, f: Effect,
                      tol: SolverTolerances = DEFAULT_TOLERANCES,
                      verify: bool = True) -> float:
    """Least k >= 1 such that e/k and f/k are compatible; equals max(1, lambda0).

    One lambda LP, as lambda0(e/k, f/k) = lambda0/k.  With verify on (the
    default) and k > 1, two slack LPs (as in is_compatible's cross_check)
    confirm it: compatible at k, and incompatible at k' = 1 + 3(k - 1)/4
    (hence below k') unless lambda0 is within 16*eps_compat of 1, where that
    verdict is tolerance-dominated.
    """
    k_star = max(1.0, compute_lambda0(space, e, f, tol).lambda0)
    if verify and k_star > 1.0:
        _check_scaled_verdict(space, e, f, tol, k_star, True)
        if k_star > 1.0 + 16.0 * tol.eps_compat:
            _check_scaled_verdict(space, e, f, tol, 1.0 + 3.0 * (k_star - 1.0) / 4.0, False)
    return k_star


def min_depolarizing_noise(space: StateSpace, e: Effect, f: Effect,
                           tol: SolverTolerances = DEFAULT_TOLERANCES) -> float:
    """Largest t in [0, 1] with t*e + (1-t)*u/2 and t*f + (1-t)*u/2 compatible.

    Compatible means lambda0 <= 1 + eps_compat, the verdict of
    compute_lambda0.  A pair compatible as given returns exactly 1.0;
    otherwise the threshold is the optimum of one LP over (g, t), solved as
    its (r+2)-row dual: maximize t subject to the witness system of the
    depolarized pair, whose vertex values 1/2 + t*(e - 1/2) are linear in t,
    at level 1 + eps_compat less _THRESHOLD_MARGIN.  Both LPs read the
    vertex values of one check of e and f.
    """
    ev, fv = _validated_pair(space, e, f, tol)
    if _lambda0_report(space, ev, fv, tol).compatible:
        return 1.0
    ev, fv = ev - 0.5, fv - 0.5
    rhs = np.repeat([0.0, 0.5, 0.5, tol.eps_compat - _THRESHOLD_MARGIN], space.n_vertices)
    column = np.concatenate([np.zeros(space.n_vertices), -ev, -fv, ev + fv])
    # feasible at t = 0 and bounded by t < 1, as the pair is incompatible at t = 1
    dual = witness_dual(space.dual_rows, column, -1.0)
    return _solve_witness_dual(space, rhs, dual, tol, "t")[0]


def random_effect(space: StateSpace, rng: np.random.Generator,
                  tol: SolverTolerances = DEFAULT_TOLERANCES,
                  span_range: tuple[float, float] = (0.2, 1.0)) -> Effect:
    """Seeded random effect: uniform affine coefficients rescaled so the
    vertex values fill a random subinterval of [0, 1], of a length drawn
    uniformly from span_range = (lo, hi); ValueError unless 0 < lo <= hi <= 1.

    All-constant draws are rejected (they carry no geometry); on a space of
    one point (affine dimension 0, any d) a random constant effect is
    returned instead.  ValueError when 100 draws all vary by at most 1e-6
    times the vertex set's half-width, half its largest coordinate range.
    """
    if not 0.0 < span_range[0] <= span_range[1] <= 1.0:  # NaN fails too
        raise ValueError(f"span_range must satisfy 0 < lo <= hi <= 1, got {span_range!r}")
    d = space.dimension
    if len(space.frame) == 1:
        return Effect(np.append(rng.uniform(0.0, 1.0), np.zeros(d)))
    M = space.vertex_matrix()
    for _ in range(100):
        c = rng.uniform(-1.0, 1.0, size=d + 1)
        values = M @ c
        lo, hi = float(values.min()), float(values.max())
        if hi - lo > 1e-6 * space.half_width:
            break
    else:
        raise ValueError(f"could not draw a non-constant affine functional on {space!r}")
    span = rng.uniform(*span_range)
    base = rng.uniform(0.0, 1.0 - span) if span < 1.0 else 0.0
    scale = span / (hi - lo)
    coeffs = c * scale
    coeffs[0] += base - lo * scale
    return effect_from_affine(space, coeffs, tol)
