import re

import numpy as np
import pytest

import effectcompat.compat as compat_module
from effectcompat.compat import (
    CrossCheckError,
    IncompatibilityError,
    MarkovKernel2x2,
    compute_lambda0,
    depolarizing_kernel,
    eq3_feasible,
    is_compatible,
    joint_observable,
    joint_observable_from_witness,
    min_depolarizing_noise,
    min_scaling_noise,
    random_effect,
    scale_effect,
    scaling_kernel,
    sigma0,
    smear,
)
from effectcompat.core import (
    Effect,
    EffectRangeError,
    complement,
    dichotomic_observable,
    effect_from_affine,
    effect_from_vertex_values,
    make_state_space,
    observable_diagnostics,
    unit_effect,
    zero_effect,
)
from effectcompat.lp import SolverFailure
from effectcompat.models import gbit_square, hypercube, regular_polygon, simplex, zoo_model
from effectcompat.tolerances import SolverTolerances


def _depolarized(e, t):
    return smear(dichotomic_observable(e), depolarizing_kernel(t)).effects[0]


def _metamorphic_pairs(seed, per_space=8):
    """Seeded pairs for the metamorphic relations of ROADMAP item 9, on
    spaces of 5 to 16 vertices; full-span pairs, which are incompatible
    more often, alternate with pairs of random span."""
    rng = np.random.default_rng(seed)
    for space in (regular_polygon(5), regular_polygon(8), regular_polygon(16),
                  hypercube(3), hypercube(4)):
        for n in range(per_space):
            span = (1.0, 1.0) if n % 2 else (0.2, 1.0)
            yield (space, random_effect(space, rng, span_range=span),
                   random_effect(space, rng, span_range=span))


def _assert_a_complement_keeps_the_verdict_and_the_threshold(seed, complement_f):
    # {e, u - e} is the same observable as {u - e, e}, so the verdict
    # cannot change; it is compared away from the edge 1 + eps_compat,
    # where solver noise may flip either side.  Depolarizing commutes
    # with the complement, so the threshold moves by solver noise only.
    eps_compat = SolverTolerances().eps_compat
    verdicts = []
    for space, e, f in _metamorphic_pairs(seed):
        pairs = [(e, f), (e, complement(f)) if complement_f else (complement(e), f)]
        lambdas = [compute_lambda0(space, *pair).lambda0 for pair in pairs]
        if all(abs(x - (1.0 + eps_compat)) > 1e-9 for x in lambdas):
            verdicts.append(is_compatible(space, *pairs[0]))
            assert is_compatible(space, *pairs[1]) == verdicts[-1], space
        t = [min_depolarizing_noise(space, *pair) for pair in pairs]
        assert abs(t[0] - t[1]) <= eps_compat, space
    assert verdicts.count(False) >= 5 and verdicts.count(True) >= 5


@pytest.fixture
def square():
    return make_state_space(
        [[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]], name="gbit"
    )


@pytest.fixture
def sharp_pair(square):
    e_x = effect_from_affine(square, [0.5, 0.5, 0.0])  # values 1,1,0,0
    e_y = effect_from_affine(square, [0.5, 0.0, 0.5])  # values 1,0,1,0
    return e_x, e_y


@pytest.fixture
def triangle():
    return make_state_space([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], name="simplex-3")


@pytest.fixture
def triangle_pair(triangle):
    e = effect_from_vertex_values(triangle, [0.2, 0.9, 0.4])
    f = effect_from_vertex_values(triangle, [0.8, 0.1, 0.5])
    return e, f


class TestComputeLambda0:
    def test_sharp_square_pair_is_maximally_incompatible(self, square, sharp_pair):
        report = compute_lambda0(square, *sharp_pair)
        assert report.lambda0 == pytest.approx(2.0, abs=1e-9)
        assert report.sigma0 == pytest.approx(1.0, abs=1e-9)
        assert not report.compatible
        # the constraints force the witness to vanish
        assert np.max(np.abs(report.witness.coefficients)) <= 1e-9
        assert np.max(np.abs(report.witness.vertex_values(square))) <= 1e-9

    def test_triangle_pair_closed_form(self, triangle, triangle_pair):
        report = compute_lambda0(triangle, *triangle_pair)
        assert report.lambda0 == pytest.approx(0.9, abs=1e-9)
        assert report.compatible

    def test_complement_pair_compatible(self, square):
        e = effect_from_affine(square, [0.4, 0.1, -0.2])
        report = compute_lambda0(square, e, complement(e))
        assert report.compatible
        assert report.lambda0 <= 1.0 + 1e-9

    def test_zero_partner_forces_zero_witness(self, square):
        e = effect_from_affine(square, [0.4, 0.1, -0.2])
        report = compute_lambda0(square, e, zero_effect(2))
        assert report.lambda0 == pytest.approx(
            float(e.vertex_values(square).max()), abs=1e-9
        )
        assert np.max(np.abs(report.witness.vertex_values(square))) <= 1e-9

    def test_a_failed_lambda_dual_names_the_space_and_the_lp(self, monkeypatch):
        def fail(problem, tol):
            raise SolverFailure("problem is unbounded: no row limits entering column 3")

        monkeypatch.setattr(compat_module, "solve_lp", fail)
        space, effects = zoo_model("polygon-5")
        message = ("StateSpace('polygon-5', d=2, vertices=5): the witness dual for lambda0 "
                   "failed: problem is unbounded: no row limits entering column 3")
        with pytest.raises(SolverFailure, match=re.escape(message)):
            compute_lambda0(space, effects["x1"], effects["x2"])

    def test_the_lambda_dual_is_posed_on_the_space_arrays_themselves(self, monkeypatch):
        # LpProblem copies nothing: every pair's LP holds the rows and rhs
        # built once per space, not copies of them.
        space = regular_polygon(8)
        posed = []
        solve = compat_module.solve_lp
        monkeypatch.setattr(compat_module, "solve_lp",
                            lambda problem, tol: posed.append(problem) or solve(problem, tol))
        rng = np.random.default_rng(5)
        for _ in range(2):
            compute_lambda0(space, random_effect(space, rng), random_effect(space, rng))
        assert len(posed) == 2
        for problem in posed:
            assert problem.rows is space.lambda_dual.rows
            assert problem.rhs is space.lambda_dual.rhs

    def test_self_pair(self, square):
        e = effect_from_affine(square, [0.4, 0.1, -0.2])
        report = compute_lambda0(square, e, e)
        assert report.compatible
        assert report.lambda0 == pytest.approx(
            float(e.vertex_values(square).max()), abs=1e-9
        )

    def test_symmetry(self, square, sharp_pair):
        e, f = sharp_pair
        a = compute_lambda0(square, e, f)
        b = compute_lambda0(square, f, e)
        assert a.lambda0 == pytest.approx(b.lambda0, abs=1e-9)
        for space, e, f in _metamorphic_pairs(11):
            a, b = compute_lambda0(space, e, f), compute_lambda0(space, f, e)
            assert abs(a.lambda0 - b.lambda0) <= 1e-12, space

    def test_vertex_permutation(self):
        rng = np.random.default_rng(12)
        for space, e, f in _metamorphic_pairs(12):
            shuffled = make_state_space(space.vertices[rng.permutation(space.n_vertices)])
            a, b = compute_lambda0(space, e, f), compute_lambda0(shuffled, e, f)
            assert abs(a.lambda0 - b.lambda0) <= 1e-12, space

    def test_complementing_e_keeps_the_verdict_and_the_threshold(self):
        _assert_a_complement_keeps_the_verdict_and_the_threshold(13, complement_f=False)

    def test_complementing_f_keeps_the_verdict_and_the_threshold(self):
        _assert_a_complement_keeps_the_verdict_and_the_threshold(15, complement_f=True)

    def test_interior_points_leave_lambda0_unchanged(self):
        # A point inside the hull adds only redundant rows to the witness
        # system, so lambda0 moves by round-off at most.
        rng = np.random.default_rng(14)
        grown = {}
        for space, e, f in _metamorphic_pairs(14):
            if space.name not in grown:
                interior = rng.dirichlet(np.ones(space.n_vertices), size=3) @ space.vertices
                grown[space.name] = make_state_space(np.vstack([space.vertices, interior]))
                assert grown[space.name].n_vertices == space.n_vertices + 3
            a, b = compute_lambda0(space, e, f), compute_lambda0(grown[space.name], e, f)
            assert abs(a.lambda0 - b.lambda0) <= 1e-12, space

    @pytest.mark.parametrize("keep_constant", [False, True], ids=["full", "flat"])
    def test_a_product_with_the_unit_keeps_lambda0(self, keep_constant):
        # The minimal tensor product has the vertices (1, v) (x) (1, w),
        # flattened; e (x) u takes the value e(v) there, so the witness
        # system of (e (x) u, f (x) u) is that of (e, f), one vertex row per
        # w.  Dropping the constant entry 1 gives a full-dimensional space;
        # keeping it, a flat one in a hyperplane, on the reduced frame.  The
        # last b is itself the product gbit (x) gbit, whose unit is u (x) u:
        # lambda0(e (x) u (x) u, f (x) u (x) u) on a three-fold product.
        def product(a, b):
            ones = (np.hstack([np.ones((s.n_vertices, 1)), s.vertices]) for s in (a, b))
            return np.einsum("ia,jb->ijab", *ones).reshape(a.n_vertices * b.n_vertices, -1)

        squares = make_state_space(product(gbit_square(), gbit_square())[:, 1:])
        for a, b in ((regular_polygon(5), gbit_square()), (hypercube(3), regular_polygon(6)),
                     (regular_polygon(8), simplex(3)), (regular_polygon(8), squares)):
            vertices = product(a, b)
            space = make_state_space(vertices if keep_constant else vertices[:, 1:])
            assert (space.hull_basis is not None) is keep_constant
            unit = np.eye(b.dimension + 1)[0]
            rng = np.random.default_rng(11)
            for _ in range(10):
                e, f = random_effect(a, rng), random_effect(a, rng)
                e_u, f_u = (np.outer(g.coefficients, unit).ravel() for g in (e, f))
                if keep_constant:
                    e_u, f_u = np.append(0.0, e_u), np.append(0.0, f_u)
                tensored = compute_lambda0(space, Effect(e_u), Effect(f_u))
                assert abs(tensored.lambda0 - compute_lambda0(a, e, f).lambda0) <= 1e-12

    def test_invalid_effect_rejected(self, square):
        with pytest.raises(EffectRangeError):
            compute_lambda0(square, Effect([2.0, 0.0, 0.0]), unit_effect(2))

    def test_effect_built_directly_is_validated(self, square):
        # values -0.15, 0.85, 0.05, 1.05: vertices 0 and 3 are out of range
        bad = Effect([0.45, -0.1, -0.5])
        for e, f in ((bad, unit_effect(2)), (unit_effect(2), bad)):
            with pytest.raises(EffectRangeError,
                               match=r"^effect value -0.15 at vertex \[1.0, 1.0\] \(index 0\)"):
                compute_lambda0(square, e, f)
        with pytest.raises(ValueError, match=r"expected 3 coefficients .* got \(2,\)"):
            compute_lambda0(square, unit_effect(2), Effect([0.5, 0.5]))
        with pytest.raises(EffectRangeError, match=r"nan at vertex .* \(index 0\)"):
            compute_lambda0(square, Effect([0.5, np.nan, 0.0]), unit_effect(2))

    @pytest.mark.parametrize("space", [gbit_square(), regular_polygon(5)],
                             ids=lambda space: space.name)
    @pytest.mark.parametrize("value", [np.nan, 1.5])
    def test_eq3_feasible_validates_its_effects(self, space, value):
        # every vertex value is nan or in [1.36, 1.64], so vertex 0 is named
        bad = Effect([value, 0.1, 0.1])
        vertex = str(space.vertices[0].tolist()).replace("[", r"\[").replace("]", r"\]")
        for e, f in ((bad, unit_effect(2)), (unit_effect(2), bad)):
            with pytest.raises(EffectRangeError, match=rf"^effect value (nan|1\.\d+) at vertex "
                                                       rf"{vertex} \(index 0\) outside"):
                eq3_feasible(space, e, f)

    def test_witness_attains_the_minimum(self, square):
        rng = np.random.default_rng(17)
        for _ in range(20):
            e = random_effect(square, rng)
            f = random_effect(square, rng)
            report = compute_lambda0(square, e, f)
            ev, fv = e.vertex_values(square), f.vertex_values(square)
            gv = report.witness.vertex_values(square)
            assert np.all(gv >= -1e-9)
            assert np.all(gv <= ev + 1e-9)
            assert np.all(gv <= fv + 1e-9)
            assert np.all(ev + fv - gv <= report.lambda0 + 1e-9)

    def test_bounds(self, square):
        rng = np.random.default_rng(23)
        for _ in range(30):
            e = random_effect(square, rng)
            f = random_effect(square, rng)
            report = compute_lambda0(square, e, f)
            lower = float(np.maximum(e.vertex_values(square), f.vertex_values(square)).max())
            assert report.lambda0 >= lower - 1e-9
            assert report.lambda0 <= 2.0 + 1e-9
            assert 0.0 <= report.sigma0 <= 1.0

    def test_underlying_lp_is_always_optimal(self, square, triangle):
        from effectcompat.compat import _lambda_problem
        from effectcompat.lp import LpProblem, solve_lp

        rng = np.random.default_rng(67)
        for space in (square, triangle):
            for _ in range(10):
                e = random_effect(space, rng)
                f = random_effect(space, rng)
                prob = _lambda_problem(
                    space, e.vertex_values(space), f.vertex_values(space)
                )
                base = solve_lp(prob)
                perm = rng.permutation(prob.n_constraints)
                shuffled = LpProblem(prob.objective, prob.rows[perm], prob.rhs[perm])
                again = solve_lp(shuffled)
                assert again.value == pytest.approx(base.value, abs=1e-9)

    def test_seeded_polygon64_pair_solves(self):
        rng = np.random.default_rng(52)
        space = regular_polygon(64)
        e = random_effect(space, rng)
        f = random_effect(space, rng)
        report = compute_lambda0(space, e, f)
        # scipy.optimize.linprog(method="highs") on the same LP
        assert report.lambda0 == pytest.approx(0.9676025327679867, abs=1e-9)
        assert report.compatible

    def test_zero_dimensional_space(self):
        point = make_state_space([[]], name="simplex-1")
        e = Effect([0.3])
        f = Effect([0.7])
        report = compute_lambda0(point, e, f)
        assert report.lambda0 == pytest.approx(0.7, abs=1e-12)
        assert report.compatible

    @pytest.mark.parametrize("d", [0, 1, 2, 3])
    def test_random_effect_on_a_one_point_space(self, d):
        # affine dimension 0 in any R^d: every effect is a constant
        point = make_state_space([[0.5] * d])
        rng = np.random.default_rng(3)
        e, f = (random_effect(point, rng) for _ in range(2))
        for g in (e, f):
            assert g.coefficients.shape == (d + 1,) and not g.coefficients[1:].any()
            assert 0.0 <= g.coefficients[0] <= 1.0
        assert compute_lambda0(point, e, f).lambda0 == pytest.approx(
            max(e.coefficients[0], f.coefficients[0]), abs=1e-12)

    def test_random_effect_on_a_small_triangle(self):
        # the floor on a draw's spread follows the vertex set's half-width,
        # 5e-8 here, so a triangle of side 1e-7 is no constant space
        space = make_state_space([[0.0, 0.0], [1e-7, 0.0], [0.0, 1e-7]])
        assert space.half_width == 0.5e-7
        e = random_effect(space, np.random.default_rng(0))
        values = e.vertex_values(space)
        assert values.min() >= 0.0 and values.max() <= 1.0
        assert values.max() - values.min() >= 0.2 - 1e-12  # the default span_range

    @pytest.mark.parametrize("span_range", [(0.0, 0.0), (0.5, 0.2), (1.5, 2.0), (-0.5, -0.1),
                                            (np.nan, 1.0)],
                             ids=["zero", "reversed", "above-1", "negative", "nan"])
    def test_random_effect_rejects_a_span_range_before_any_draw(self, span_range):
        space = regular_polygon(8)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=r"^span_range must satisfy 0 < lo <= hi <= 1"):
            random_effect(space, rng, span_range=span_range)
        assert rng.bit_generator.state == state

    def test_random_effect_gives_up_after_100_constant_draws(self):
        class ZeroRng:  # every draw is the zero functional
            calls = 0

            def uniform(self, low, high, size=None):
                self.calls += 1
                return np.zeros(size)

        rng = ZeroRng()
        with pytest.raises(ValueError, match="could not draw a non-constant affine functional"):
            random_effect(regular_polygon(8), rng)
        assert rng.calls == 100


@pytest.mark.parametrize("field", ["eps_feas", "eps_opt", "eps_geom", "eps_compat"])
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_non_finite_tolerance_names_its_field(field, value):
    with pytest.raises(ValueError, match=field):
        SolverTolerances(**{field: value})


def test_eps_compat_below_eps_opt_is_rejected():
    with pytest.raises(ValueError, match=r"eps_compat \(1e-07\) must be >= eps_opt \(1e-06\)"):
        SolverTolerances(eps_opt=1e-6, eps_compat=1e-7)


class TestIsCompatible:
    def test_sharp_pair_incompatible(self, square, sharp_pair):
        assert is_compatible(square, *sharp_pair) is False

    def test_simplex_pairs_always_compatible(self, triangle):
        rng = np.random.default_rng(29)
        for _ in range(25):
            e = random_effect(triangle, rng)
            f = random_effect(triangle, rng)
            assert is_compatible(triangle, e, f)

    def test_self_compatibility(self, square):
        e = effect_from_affine(square, [0.4, 0.1, -0.2])
        assert is_compatible(square, e, e)

    def test_agrees_with_direct_feasibility(self, square, triangle):
        rng = np.random.default_rng(31)
        for space in (square, triangle):
            for _ in range(40):
                e = random_effect(space, rng)
                f = random_effect(space, rng)
                assert is_compatible(space, e, f) == eq3_feasible(space, e, f)

    def test_cross_check_mode_is_clean(self, square, sharp_pair, triangle, triangle_pair):
        assert is_compatible(square, *sharp_pair, cross_check=True) is False
        assert is_compatible(triangle, *triangle_pair, cross_check=True) is True

    @pytest.mark.parametrize("d", [5e-9, 5e-8, 9e-8, 1.002e-7, 1.005e-7, 1.009e-7, 2e-7])
    def test_cross_check_compares_at_the_verdicts_threshold(self, square, sharp_pair, d):
        # (e_x, e_y) scaled by (1 + d)/2 has lambda0 = 1 + d: infeasible at
        # lambda = 1 for every d, compatible within eps_compat = 1e-7 for d <= 1e-7.
        # Just above, the witness system at 1 + eps_compat needs a slack under
        # eps_feas, which a phase-one residual test took for feasible.
        e, f = (scale_effect(x, (1.0 + d) / 2.0) for x in sharp_pair)
        assert is_compatible(square, e, f, cross_check=True) is (d <= 1e-7)

    @pytest.mark.parametrize("d", [
        1.01e-7, 1.03e-7, 1.001e-7,
        pytest.param(1.00001e-7, marks=pytest.mark.xfail(
            strict=True, raises=CrossCheckError,
            reason="known cross_check window about 1e-11 wide above 1 + eps_compat; "
                   "ROADMAP item 3 (exact certificate) closes it")),
    ])
    def test_cross_check_is_clean_just_past_the_threshold(self, d):
        # Seeded incompatible pairs scaled to lambda0 = 1 + d, within about
        # eps_feas of the verdict's threshold 1 + eps_compat.  Of the 181
        # pairs, none raises at d = 1.001e-7 and about 50 at 1.00001e-7.
        rng = np.random.default_rng(901)
        spaces = (gbit_square(), regular_polygon(8), hypercube(3), regular_polygon(16),
                  hypercube(4))
        checked = 0
        for i in range(300):
            space = spaces[i % 5]
            span = (0.2, 1.0) if i % 2 == 0 else (1.0, 1.0)
            e, f = (random_effect(space, rng, span_range=span) for _ in range(2))
            lambda0 = compute_lambda0(space, e, f).lambda0
            if lambda0 <= 1.001:
                continue
            c = (1.0 + d) / lambda0
            assert is_compatible(space, scale_effect(e, c), scale_effect(f, c),
                                 cross_check=True) is False, (i, space.name)
            checked += 1
        assert checked > 40

    def test_half_unit_system_feasible(self, square, triangle):
        for space in (square, triangle):
            half = Effect(unit_effect(space.dimension).coefficients * 0.5)
            assert eq3_feasible(space, half, half) is True


class TestSigma0:
    def test_values(self):
        assert sigma0(2.0) == pytest.approx(1.0)
        assert sigma0(1.0) == 0.0
        assert sigma0(4.0 / 3.0) == pytest.approx(0.5)
        assert sigma0(0.9) == 0.0  # clamped in the compatible regime

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            sigma0(0.0)
        with pytest.raises(ValueError):
            sigma0(-1.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, value):
        with pytest.raises(ValueError, match="positive and finite"):
            sigma0(value)


class TestKernels:
    def test_identity_scaling_kernel(self):
        k = scaling_kernel(1.0)
        assert (k.mu11, k.mu12, k.mu21, k.mu22) == (1.0, 0.0, 0.0, 1.0)

    def test_scaling_kernel_half(self):
        k = scaling_kernel(2.0)
        assert (k.mu11, k.mu12, k.mu21, k.mu22) == (0.5, 0.0, 0.5, 1.0)

    def test_scaling_kernel_columns_sum_to_one_exactly(self):
        for kk in (1.0, 1.5, 3.0, 7.0, 1e6):
            k = scaling_kernel(kk)
            assert k.mu11 + k.mu21 == 1.0
            assert k.mu12 + k.mu22 == 1.0

    def test_scaling_kernel_rejects_small_k(self):
        with pytest.raises(ValueError):
            scaling_kernel(0.5)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_level_is_named_before_any_lp(self, monkeypatch, value):
        # No LP can answer at a level that is not finite: at nan the slack
        # dual would run out its pivot budget, at inf answer False.
        monkeypatch.setattr(compat_module, "solve_lp",
                            lambda *args: pytest.fail("an LP was solved"))
        square = gbit_square()
        with pytest.raises(ValueError, match=rf"^lam must be finite, got {value!r}$"):
            eq3_feasible(square, unit_effect(2), unit_effect(2), lam=value)
        with pytest.raises(ValueError, match=rf"^scaling parameter must be finite and >= 1, "
                                             rf"got {value!r}$"):
            scaling_kernel(value)

    def test_depolarizing_kernel_bounds(self):
        with pytest.raises(ValueError):
            depolarizing_kernel(1.5)
        k = depolarizing_kernel(0.0)
        assert k.mu11 == pytest.approx(0.5)

    def test_invalid_kernel_rejected(self):
        with pytest.raises(ValueError):
            MarkovKernel2x2(0.7, 0.0, 0.7, 1.0)
        with pytest.raises(ValueError):
            MarkovKernel2x2(1.5, 0.0, -0.5, 1.0)


class TestSmear:
    def test_identity_kernel_leaves_observable_unchanged(self, square):
        e = effect_from_affine(square, [0.4, 0.1, -0.2])
        obs = dichotomic_observable(e)
        smeared = smear(obs, scaling_kernel(1.0))
        assert np.array_equal(smeared.effects[0].coefficients, e.coefficients)
        assert np.array_equal(
            smeared.effects[1].coefficients, obs.effects[1].coefficients
        )

    def test_scaling_kernel_divides_first_component(self, square):
        e = effect_from_affine(square, [0.4, 0.1, -0.2])
        smeared = smear(dichotomic_observable(e), scaling_kernel(4.0))
        assert np.allclose(smeared.effects[0].coefficients, e.coefficients / 4.0)

    def test_extreme_scaling_kills_the_effect(self, square):
        e = effect_from_affine(square, [0.4, 0.1, -0.2])
        smeared = smear(dichotomic_observable(e), scaling_kernel(1e6))
        values = smeared.effects[0].vertex_values(square)
        assert np.max(np.abs(values)) <= 1e-6 * float(e.vertex_values(square).max())

    def test_total_noise_gives_trivial_observable(self, square):
        e = effect_from_affine(square, [0.4, 0.1, -0.2])
        smeared = smear(dichotomic_observable(e), MarkovKernel2x2(0.5, 0.5, 0.5, 0.5))
        for comp in smeared.effects:
            assert np.allclose(comp.vertex_values(square), 0.5)

    def test_smeared_observable_stays_valid(self, square):
        rng = np.random.default_rng(37)
        for _ in range(25):
            e = random_effect(square, rng)
            a, b = rng.uniform(0.0, 1.0, 2)
            kernel = MarkovKernel2x2(a, b, 1.0 - a, 1.0 - b)
            smeared = smear(dichotomic_observable(e), kernel)
            assert not observable_diagnostics(smeared, square)

    def test_rejects_non_dichotomic(self, square):
        obs = dichotomic_observable(effect_from_affine(square, [0.4, 0.1, -0.2]))
        three = obs.effects + (zero_effect(2),)
        with pytest.raises(ValueError):
            smear(
                type(obs)(outcomes=(0, 1, 2), effects=three), scaling_kernel(2.0)
            )


class TestJointObservable:
    def test_triangle_example(self, triangle, triangle_pair):
        e, f = triangle_pair
        g = effect_from_vertex_values(triangle, [0.2, 0.1, 0.4])  # pointwise min
        obs = joint_observable_from_witness(triangle, e, f, g)
        expected = [
            (0.2, 0.1, 0.4),
            (0.0, 0.8, 0.0),
            (0.6, 0.0, 0.1),
            (0.2, 0.1, 0.5),
        ]
        for comp, vals in zip(obs.effects, expected):
            assert np.allclose(comp.vertex_values(triangle), vals, atol=1e-12)
        assert not observable_diagnostics(obs, triangle)
        # margins reproduce the two dichotomic observables
        assert np.allclose(
            obs.effects[0].coefficients + obs.effects[1].coefficients,
            e.coefficients, atol=1e-12,
        )
        assert np.allclose(
            obs.effects[0].coefficients + obs.effects[2].coefficients,
            f.coefficients, atol=1e-12,
        )

    def test_self_joint_measurement(self, square):
        e = effect_from_affine(square, [0.4, 0.1, -0.2])
        obs = joint_observable_from_witness(square, e, e, e)
        assert np.allclose(obs.effects[0].coefficients, e.coefficients)
        assert np.max(np.abs(obs.effects[1].coefficients)) == 0.0
        assert np.max(np.abs(obs.effects[2].coefficients)) == 0.0
        assert np.allclose(
            obs.effects[3].coefficients, complement(e).coefficients
        )

    def test_complement_pair_with_zero_witness(self, square):
        e = effect_from_affine(square, [0.4, 0.1, -0.2])
        obs = joint_observable_from_witness(
            square, e, complement(e), zero_effect(2)
        )
        assert np.max(np.abs(obs.effects[0].coefficients)) == 0.0
        assert np.allclose(obs.effects[1].coefficients, e.coefficients)
        assert np.allclose(obs.effects[2].coefficients, complement(e).coefficients)
        assert np.max(np.abs(obs.effects[3].coefficients)) <= 1e-15

    def test_bad_witness_names_inequality_and_vertex(self, triangle, triangle_pair):
        e, f = triangle_pair
        g = effect_from_vertex_values(triangle, [0.9, 0.1, 0.4])  # g > e at vertex 0
        with pytest.raises(ValueError, match="g <= e"):
            joint_observable_from_witness(triangle, e, f, g)

    def test_wrapper_builds_valid_observable(self, triangle, triangle_pair):
        obs, report = joint_observable(triangle, *triangle_pair)
        assert report.compatible
        assert not observable_diagnostics(obs, triangle)

    def test_wrapper_rejects_incompatible(self, square, sharp_pair):
        with pytest.raises(IncompatibilityError) as err:
            joint_observable(square, *sharp_pair)
        assert err.value.lambda0 == pytest.approx(2.0, abs=1e-9)

    def test_boundary_pair_without_witness_at_one_is_rejected(self, square, sharp_pair):
        # lambda0 = 1 + 5e-8: compatible within eps_compat, infeasible at lambda = 1.
        e, f = (scale_effect(x, (1.0 + 5e-8) / 2.0) for x in sharp_pair)
        assert is_compatible(square, e, f)
        with pytest.raises(IncompatibilityError, match="eps_compat") as err:
            joint_observable(square, e, f)
        assert err.value.lambda0 == pytest.approx(1.0 + 5e-8, abs=1e-12)

    def test_boundary_pair_takes_the_witness_at_one(self):
        # lambda0 = 1 + 2e-9 on polygon-8: the lambda0 witness misses
        # e + f <= g + u by 2e-9 > eps_feas, the witness at lambda = 1 does not.
        space = regular_polygon(8)
        rng = np.random.default_rng(7)
        e, f = (random_effect(space, rng, span_range=(1.0, 1.0)) for _ in range(2))
        c = (1.0 + 2e-9) / compute_lambda0(space, e, f).lambda0
        e, f = scale_effect(e, c), scale_effect(f, c)
        report = compute_lambda0(space, e, f)
        assert 1.0 < report.lambda0 <= 1.0 + 1e-7
        with pytest.raises(ValueError, match="e \\+ f <= g \\+ u"):
            joint_observable_from_witness(space, e, f, report.witness)
        obs, _ = joint_observable(space, e, f)
        assert not observable_diagnostics(obs, space)


class TestMinScalingNoise:
    def test_sharp_pair_needs_halving(self, square, sharp_pair):
        e, f = sharp_pair
        assert min_scaling_noise(square, e, f) == pytest.approx(2.0, abs=1e-9)
        half = (scale_effect(e, 0.5), scale_effect(f, 0.5))
        assert is_compatible(square, *half)
        two_thirds = (scale_effect(e, 1 / 1.5), scale_effect(f, 1 / 1.5))
        assert not is_compatible(square, *two_thirds)

    def test_compatible_pair_needs_nothing(self, triangle, triangle_pair):
        assert min_scaling_noise(triangle, *triangle_pair) == 1.0

    def test_complement_pair_needs_nothing(self, square):
        e = effect_from_affine(square, [0.4, 0.1, -0.2])
        assert min_scaling_noise(square, e, complement(e)) == 1.0

    def test_scaled_pair_compatible_for_random_incompatible_pairs(self, square):
        rng = np.random.default_rng(41)
        found = 0
        for _ in range(60):
            e = random_effect(square, rng)
            f = random_effect(square, rng)
            report = compute_lambda0(square, e, f)
            if report.compatible:
                continue
            found += 1
            scaled = (
                scale_effect(e, 1.0 / report.lambda0),
                scale_effect(f, 1.0 / report.lambda0),
            )
            assert is_compatible(square, *scaled)
        assert found > 0  # the draw must exercise the incompatible regime

    @pytest.mark.parametrize("verify, checks", [(True, 2), (False, 0)])
    def test_one_lambda_lp_and_phase_one_checks(self, square, sharp_pair, monkeypatch,
                                               verify, checks):
        # Each check is one slack LP, solved like the lambda LP; no phase one.
        calls = []
        for name in ("solve_lp", "check_feasible", "_witness_slack"):
            original = getattr(compat_module, name)
            monkeypatch.setattr(compat_module, name,
                                lambda *a, _o=original, _n=name: calls.append(_n) or _o(*a))
        assert min_scaling_noise(square, *sharp_pair, verify=verify) == pytest.approx(2.0)
        counts = tuple(map(calls.count, ("solve_lp", "check_feasible", "_witness_slack")))
        assert counts == (1 + checks, 0, checks)

    @pytest.mark.parametrize("disagree, run, expected", [
        (lambda z: -z,
         lambda s, e, f: is_compatible(s, e, f, cross_check=True), "1.0 should be in"),
        (lambda z: 1.0, min_scaling_noise, "should be compatible"),
        (lambda z: 0.0, min_scaling_noise, "should be incompatible"),
    ], ids=["cross_check", "verify-at-k", "verify-below-k"])
    def test_each_check_raises_on_a_disagreeing_route(self, square, sharp_pair, monkeypatch,
                                                      disagree, run, expected):
        # disagree maps the least slack z of the witness system to a wrong one
        original = compat_module._witness_slack

        def disagreeing(*args):
            z, *rest = original(*args)
            return (disagree(z), *rest)

        monkeypatch.setattr(compat_module, "_witness_slack", disagreeing)
        with pytest.raises(CrossCheckError, match=expected):
            run(square, *sharp_pair)


class TestMinDepolarizingNoise:
    def test_compatible_pair(self, triangle, triangle_pair):
        assert min_depolarizing_noise(triangle, *triangle_pair) == 1.0

    def test_complement_pair(self, square):
        e = effect_from_affine(square, [0.4, 0.1, -0.2])
        assert min_depolarizing_noise(square, e, complement(e)) == 1.0

    def test_sharp_pair_lambda0_is_twice_t_past_threshold(self, square, sharp_pair):
        # For t >= 1/2 the best witness has vertex values (1-t, (1-t)/2, (1-t)/2, 0),
        # giving lambda0 = 2t; below 1/2 the pair is compatible.
        e, f = sharp_pair
        for t in (0.6, 0.75, 1.0):
            report = compute_lambda0(square, _depolarized(e, t), _depolarized(f, t))
            assert report.lambda0 == pytest.approx(2.0 * t, abs=1e-9)
        report = compute_lambda0(square, _depolarized(e, 0.4), _depolarized(f, 0.4))
        assert report.compatible

    def test_sharp_pair_threshold_is_one_half(self, square, sharp_pair):
        # Golden value: lambda0 = 2t near the boundary, so the tolerant
        # predicate (lambda0 <= 1 + eps_compat) flips at t = (1 + eps_compat)/2.
        t = min_depolarizing_noise(square, *sharp_pair)
        assert t == pytest.approx((1.0 + 1e-7) / 2.0, abs=1e-12)
        tight = SolverTolerances(eps_compat=1e-9)
        t_tight = min_depolarizing_noise(square, *sharp_pair, tol=tight)
        assert t_tight == pytest.approx((1.0 + 1e-9) / 2.0, abs=1e-12)

    def test_incompatible_pair_takes_two_lp_solves(self, square, sharp_pair, monkeypatch):
        calls = []
        solve = compat_module.solve_lp
        monkeypatch.setattr(compat_module, "solve_lp", lambda *a: calls.append(1) or solve(*a))
        min_depolarizing_noise(square, *sharp_pair)
        assert len(calls) == 2

    def test_checks_each_effect_once(self, monkeypatch):
        # the lambda LP and the threshold LP share one check of each effect
        calls = []
        check = compat_module.checked_vertex_values
        monkeypatch.setattr(compat_module, "checked_vertex_values",
                            lambda *a: calls.append(1) or check(*a))
        rng = np.random.default_rng(2024)
        incompatible = 0
        for space in (gbit_square(), regular_polygon(8), hypercube(3)):
            for _ in range(6):
                e, f = (random_effect(space, rng, span_range=(1.0, 1.0)) for _ in range(2))
                del calls[:]
                incompatible += min_depolarizing_noise(space, e, f) < 1.0
                assert len(calls) == 2, space.name
        assert incompatible >= 6

    def test_threshold_is_the_last_compatible_t(self):
        # Seeded pairs of both spans: the smeared pair is compatible at t*
        # and incompatible just past it, unless no noise is needed.
        rng = np.random.default_rng(2024)
        below_one = 0
        for space in (gbit_square(), regular_polygon(8), hypercube(3), regular_polygon(16)):
            for span in ((0.2, 1.0), (1.0, 1.0)):
                for _ in range(5):
                    e = random_effect(space, rng, span_range=span)
                    f = random_effect(space, rng, span_range=span)
                    t = min_depolarizing_noise(space, e, f)
                    assert 0.0 <= t <= 1.0
                    at = compute_lambda0(space, _depolarized(e, t), _depolarized(f, t))
                    assert at.compatible, (space.name, t, at.lambda0)
                    if t == 1.0:
                        continue
                    below_one += 1
                    t_past = min(1.0, t + 1e-6)
                    past = compute_lambda0(space, _depolarized(e, t_past),
                                           _depolarized(f, t_past))
                    assert not past.compatible, (space.name, t, past.lambda0)
        assert below_one > 0  # the draw must exercise the incompatible regime
