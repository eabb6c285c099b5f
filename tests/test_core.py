import inspect
import warnings

import numpy as np
import pytest

import effectcompat.core as core
from effectcompat.core import (
    Effect,
    EffectRangeError,
    Observable,
    RepresentabilityError,
    complement,
    coordinate_effect,
    dichotomic_observable,
    effect_from_affine,
    effect_from_vertex_values,
    leq,
    make_state_space,
    observable_diagnostics,
    separating_effect,
    unit_effect,
    zero_effect,
)


def test_every_tol_parameter_defaults_to_the_shared_tolerances():
    # by identity: SolverTolerances is frozen, and None is no second spelling
    import effectcompat
    from effectcompat import lp, oracle
    from effectcompat.tolerances import DEFAULT_TOLERANCES

    functions = [getattr(effectcompat, name) for name in effectcompat.__all__] + [
        oracle.grid_lambda0, oracle.cross_check, core.checked_vertex_values,
        lp.solve_lp, lp.check_feasible]
    parameters = {fn.__name__: inspect.signature(fn).parameters
                  for fn in functions if inspect.isfunction(fn)}
    defaults = {name: p["tol"].default for name, p in parameters.items() if "tol" in p}
    assert len(defaults) == 21
    assert all(default is DEFAULT_TOLERANCES for default in defaults.values()), defaults


@pytest.fixture
def segment():
    return make_state_space([[0.0], [1.0]], name="segment")


@pytest.fixture
def square():
    return make_state_space(
        [[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]], name="gbit"
    )


@pytest.fixture
def triangle():
    return make_state_space([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], name="triangle")


class TestMakeStateSpace:
    def test_segment(self, segment):
        assert segment.dimension == 1
        assert segment.n_vertices == 2

    def test_square(self, square):
        assert square.dimension == 2
        assert square.n_vertices == 4

    def test_interior_vertices_are_kept_without_warning(self):
        square_3d = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]]
        for vertices in (
            [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.25, 0.25]],
            square_3d + [[0.5, 0.5, 0.0], [0.2, 0.7, 0.0]],  # a square embedded at z = 0
        ):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                space = make_state_space(vertices)
            assert np.array_equal(space.vertices, vertices)  # kept, not dropped

    def test_duplicates_are_removed(self):
        space = make_state_space([[0.0], [1.0], [1.0], [0.0]])
        assert space.n_vertices == 2

    def test_near_duplicates_are_removed(self):
        space = make_state_space([[0.0], [1.0], [1.0 + 1e-12]])
        assert space.n_vertices == 2

    def test_near_duplicates_are_removed_above_512_vertices(self):
        angles = 2.0 * np.pi * np.arange(512) / 512
        polygon = np.column_stack([np.cos(angles), np.sin(angles)])
        vertices = np.vstack([polygon, polygon[:1] + 1e-12])
        space = make_state_space(vertices)
        assert space.n_vertices == 512

    def test_dedup_matches_the_pairwise_loop(self):
        # Reference: compare each point with every kept one, keep the first.
        def pairwise(arr, eps=1e-9):
            keep = []
            for i in range(len(arr)):
                if not any(np.max(np.abs(arr[i] - arr[j]), initial=0.0) <= eps for j in keep):
                    keep.append(i)
            return arr[keep]

        rng = np.random.default_rng(1)
        for trial in range(300):
            d, k = int(rng.integers(0, 5)), int(rng.integers(1, 40))
            base = rng.normal(size=(max(1, k // 3), d)) * 10.0 ** rng.integers(-3, 7)
            arr = base[rng.integers(0, len(base), size=k)]
            if trial % 3 == 1:  # near-duplicates on both sides of eps
                arr = arr + rng.uniform(-1.5e-9, 1.5e-9, size=arr.shape)
            elif trial % 3 == 2:  # chains at multiples of eps along one axis
                arr = arr + rng.integers(0, 4, size=(k, 1)) * 1e-9 * (np.arange(d) == 0)
            space = make_state_space(arr)
            assert np.array_equal(space.vertices, pairwise(arr)), trial

    @pytest.mark.parametrize("as_array", [True, False])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_vertex_names_its_index(self, as_array, bad):
        vertices = [[0.0, 0.0], [bad, 0.0], [0.0, 1.0]]
        with pytest.raises(ValueError, match="vertex 1 is not finite"):
            make_state_space(np.array(vertices) if as_array else vertices)

    def test_integer_too_large_for_a_double_is_a_value_error(self):
        # numpy raises OverflowError on it; both constructors word it as
        # _floats words a coefficient, not as a shape fault
        message = r"^vertices hold a number too large for a double: "
        for build in (make_state_space, core.StateSpace):
            with pytest.raises(ValueError, match=message):
                build([[10**400, 0], [0, 1], [0, 0]])

    def test_hull_scan_on_tilted_flat_clouds(self):
        # Lower-dimensional clouds, rotated out of the axes and moved off the
        # origin: the frame search finds the dimension of their affine hull.
        rotation = np.linalg.qr(np.random.default_rng(4).normal(size=(3, 3)))[0]
        segment = np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [1.0, 0.0, 0.0]])
        square = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                           [1.0, 1.0, 0.0], [0.3, 0.6, 0.0]])
        for points, rank in ((segment, 1), (square, 2)):
            for scale in (1e-3, 1.0, 1e3):
                space = make_state_space(points @ rotation.T * scale + 0.5 * scale)
                assert space.hull_basis.shape == (3, rank), scale
                assert len(space.frame) == rank + 1, scale

    def test_a_point_off_the_flat_of_the_others_is_not_in_their_hull(self):
        # An apex 1e-6 above a square is the one vertex off the square's
        # plane, so it is a frame vertex.  At height 0 it is the square's
        # centre, and the frame stays in the plane.
        square = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]]
        for height, frame_size in ((1e-6, 4), (0.0, 3)):
            space = make_state_space(square + [[0.5, 0.5, height]])
            assert len(space.frame) == frame_size, height

    def test_the_frame_is_searched_once_per_space(self, monkeypatch):
        # The frame search runs once, in StateSpace.__post_init__.
        from effectcompat import models

        calls = []
        affine_frame = core._affine_frame

        def spy_frame(vertices):
            calls.append(len(vertices))
            return affine_frame(vertices)

        monkeypatch.setattr(core, "_affine_frame", spy_frame)
        square_with_centre = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.5, 0.5]]
        flat = np.vstack([models.regular_polygon(6).vertices.T, np.zeros(6)]).T
        for vertices in (square_with_centre, flat, models.hypercube(3).vertices):
            calls.clear()
            make_state_space(vertices)
            assert calls == [len(vertices)]

    def test_certified_polytopes_run_no_hull_lp(self, monkeypatch):
        # make_state_space poses no LP at all, with or without interior points.
        from effectcompat import lp, models

        calls = []
        monkeypatch.setattr(lp.LpProblem, "__post_init__", lambda problem: calls.append(problem))
        for space in (models.regular_polygon(128), models.hypercube(7)):
            interior = np.random.default_rng(5).dirichlet(np.ones(space.n_vertices), 3)
            rebuilt = make_state_space(np.vstack([space.vertices, interior @ space.vertices]))
            assert rebuilt.n_vertices == space.n_vertices + 3
        assert calls == []

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            make_state_space([])

    def test_ragged_dimensions_rejected(self):
        with pytest.raises(ValueError):
            make_state_space([[0.0], [1.0, 2.0]])

    @pytest.mark.parametrize("build, vertices, message", [
        pytest.param(build, vertices, message, id=prefix + case)
        for prefix, build in (("", make_state_space), ("StateSpace-", core.StateSpace))
        for case, vertices, message in [
            ("1-d", np.array([0.0, 1.0]),
             "vertices must form a nonempty (k, d) array, got shape (2,)"),
            ("3-d", np.zeros((2, 2, 2)),
             "vertices must form a nonempty (k, d) array, got shape (2, 2, 2)"),
            ("no-rows", np.empty((0, 2)),
             "vertices must form a nonempty (k, d) array, got shape (0, 2)"),
            ("ragged", [[0.0], [1.0, 2.0]], "vertices must be a rectangular list of points: "),
            ("non-finite", [[0.0, 0.0], [0.0, np.nan]], "vertex 1 is not finite: [0.0, nan]"),
        ]])
    def test_an_array_of_no_points_is_rejected(self, build, vertices, message):
        # both constructors check the vertices in one place, with one message each
        with pytest.raises(ValueError) as rejected:
            build(vertices)
        assert str(rejected.value).startswith(message)

    def test_point_space(self):
        space = make_state_space([[]])
        assert space.dimension == 0
        assert space.n_vertices == 1


class TestStateSpaceValidation:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_vertex_names_its_index(self, bad):
        with pytest.raises(ValueError, match="vertex 0 is not finite"):
            core.StateSpace([[bad, 0.0], [1.0, 0.0], [0.0, 1.0]])


class TestStateSpaceDerivedData:
    def test_vertex_matrix_is_built_once_and_read_only(self, square):
        m = square.vertex_matrix()
        assert np.array_equal(m, np.hstack([np.ones((4, 1)), square.vertices]))
        assert m is square.vertex_matrix()
        with pytest.raises(ValueError, match="read-only"):
            m[0, 1] = 2.0

    def test_frame_is_affinely_independent(self, segment, square, triangle):
        from effectcompat.models import hypercube, regular_polygon

        for space in (segment, square, triangle, regular_polygon(16), hypercube(4),
                      make_state_space([[]])):
            frame = space.frame
            assert len(frame) == len(set(frame)) == space.dimension + 1, space.name
            assert np.linalg.matrix_rank(space.vertex_matrix()[list(frame)]) == len(frame)

    def test_a_space_that_does_not_span_gets_the_frame_of_its_hull(self):
        flat = make_state_space([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                                 [1.0, 1.0, 0.0]])
        point = make_state_space([[0.5, 0.5]])
        assert len(flat.frame) == 3 and point.frame == (0,)
        basis = flat.hull_basis  # orthonormal, spanning the plane z = 0
        assert np.allclose(basis.T @ basis, np.eye(2)) and np.allclose(basis[2], 0.0)
        assert point.hull_basis.shape == (2, 0)
        for array in (flat.hull_basis, point.hull_basis):
            assert not array.flags.writeable

    def test_dual_rows_and_frame_swap_equal_their_formulas(self, segment, square, triangle):
        import dataclasses

        from effectcompat.models import hypercube, regular_polygon

        assert {"frame", "frame_swap", "dual_rows", "lambda_dual"}.isdisjoint(
            field.name for field in dataclasses.fields(core.StateSpace))
        for space in (segment, square, triangle, regular_polygon(16), hypercube(4),
                      make_state_space([[]])):
            assert space.hull_basis is None, space.name
            m = space.vertex_matrix()
            rows = space.dual_rows
            assert np.array_equal(rows, np.hstack([-m.T, m.T, m.T, -m.T])), space.name
            assert rows is space.dual_rows
            k = space.n_vertices
            dual = space.lambda_dual
            assert dual is space.lambda_dual and dual.rows is space.lambda_dual.rows
            column = np.concatenate([np.zeros(3 * k), -np.ones(k)])
            assert np.array_equal(dual.rows, np.vstack([rows, column])), space.name
            assert rows.base is dual.rows  # a view: the shared rows are stored once
            assert np.array_equal(dual.rhs, np.append(np.zeros(m.shape[1]), -1.0))
            # delta pairs with beta and with gamma: 1 / (0 + 1) per vertex, none elsewhere
            expected = np.repeat([[1.0], [1.0], [0.0], [0.0]], k, axis=1)
            assert np.array_equal(dual.denominators, expected)
            assert dual._fields == ("rows", "rhs", "denominators")
            for array in dual:
                assert not array.flags.writeable, space.name
            slack = space.slack_dual
            assert slack is space.slack_dual and slack.rows is space.slack_dual.rows
            assert np.array_equal(slack.rows, np.vstack([rows, -np.ones(4 * k)])), space.name
            assert np.array_equal(slack.rhs, dual.rhs)
            assert np.array_equal(slack.denominators, np.full((4, k), 2.0))
            for array in slack:
                assert not array.flags.writeable, space.name
            frame = list(space.frame)
            assert space.frame_swap.shape == (space.n_vertices,)
            for v in range(space.n_vertices):
                weights = np.abs(np.linalg.solve(m[frame].T, m[v]))
                assert weights[space.frame_swap[v]] >= weights.max() - 1e-12, (space.name, v)
                swapped = list(frame)
                swapped[space.frame_swap[v]] = v
                assert np.linalg.matrix_rank(m[swapped]) == len(frame), (space.name, v)
            with pytest.raises(ValueError, match="read-only"):
                rows[0, 0] = 2.0
            with pytest.raises(ValueError, match="read-only"):
                space.frame_swap[0] = 1
            with pytest.raises(dataclasses.FrozenInstanceError):
                space.dual_rows = rows.copy()
            with pytest.raises(ValueError, match="read-only"):
                dual.rows[-1, -1] = 1.0
            with pytest.raises(dataclasses.FrozenInstanceError):
                space.lambda_dual = dual
            with pytest.raises(dataclasses.FrozenInstanceError):
                space.slack_dual = slack
        # A triangle tilted in R^3 and moved off the origin: its shared rows
        # are built on [1 | (V - v0) Q], and vertex_matrix() stays ambient.
        tilted = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        tilted = tilted @ np.linalg.qr(np.random.default_rng(4).normal(size=(3, 3)))[0].T + 2.0
        flat = make_state_space(tilted)
        v, basis = flat.vertices, flat.hull_basis
        assert np.array_equal(flat.vertex_matrix(), np.hstack([np.ones((3, 1)), v]))
        reduced = np.hstack([np.ones((3, 1)), (v - v[0]) @ basis])
        assert np.array_equal(flat.dual_rows, np.hstack([-reduced.T, reduced.T, reduced.T,
                                                         -reduced.T]))
        assert len(flat.frame) == 3 and flat.frame_swap.shape == (3,)
        assert np.array_equal(flat.slack_dual.rows[:-1], flat.dual_rows)


class TestEffectConstruction:
    def test_sharp_x_effect_on_square(self, square):
        e_x = effect_from_affine(square, [0.5, 0.5, 0.0])
        assert np.allclose(e_x.vertex_values(square), [1.0, 1.0, 0.0, 0.0])

    def test_unit_functional_everywhere(self, square, segment, triangle):
        for space in (square, segment, triangle):
            u = effect_from_affine(space, unit_effect(space.dimension).coefficients)
            assert np.allclose(u.vertex_values(space), 1.0)

    def test_out_of_range_names_vertex_and_value(self, segment):
        with pytest.raises(EffectRangeError) as err:
            effect_from_affine(segment, [0.0, 2.0])
        assert "2" in str(err.value)
        assert "[1.0]" in str(err.value)

    def test_two_vertices_out_of_range_name_the_first(self, square):
        # values -0.15, 0.85, 0.05, 1.05: vertices 0 and 3 are out of range
        with pytest.raises(EffectRangeError,
                           match=r"^effect value -0.15 at vertex \[1.0, 1.0\] \(index 0\)"):
            effect_from_affine(square, [0.45, -0.1, -0.5])

    def test_wrong_length_rejected(self, segment):
        with pytest.raises(ValueError):
            effect_from_affine(segment, [0.5, 0.5, 0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_coefficient_rejected(self, square, bad):
        with pytest.raises(EffectRangeError, match=r"(nan|inf) at vertex .* \(index 0\)"):
            effect_from_affine(square, [0.5, bad, 0.0])

    @pytest.mark.parametrize("build, numbers", [(effect_from_affine, [0.5, 10**400, 0.0]),
                                                (effect_from_vertex_values, [1.0, 10**400, 0.0]),
                                                pytest.param(lambda space, c: Effect(c),
                                                             [10**400, 0, 0], id="Effect")])
    def test_integer_too_large_for_a_double_is_a_value_error(self, triangle, build, numbers):
        with pytest.raises(ValueError, match="too large for a double"):
            build(triangle, numbers)

    def test_empty_coefficients_rejected(self):
        with pytest.raises(ValueError, match="nonempty 1-d vector"):
            Effect([])

    def test_an_effect_is_evaluated_by_a_call(self):
        e = Effect([0.5, 0.25, -0.25])
        assert e([1.0, 1.0]) == 0.5

    def test_vertex_values_on_a_space_of_another_dimension(self, segment):
        with pytest.raises(ValueError, match="effect lives in dimension 2, space in 1"):
            Effect([0.5, 0.0, 0.0]).vertex_values(segment)

    def test_effect_built_directly_holds_its_own_copy(self):
        coefficients = np.array([0.5, 0.0, 0.0])
        e = Effect(coefficients)
        coefficients[0] = 2.0
        assert e.coefficients.tolist() == [0.5, 0.0, 0.0]
        assert not e.coefficients.flags.writeable


class TestEffectFromVertexValues:
    def test_exact_on_triangle(self, triangle):
        eff = effect_from_vertex_values(triangle, [0.2, 0.9, 0.4])
        assert np.allclose(eff.vertex_values(triangle), [0.2, 0.9, 0.4], atol=1e-12)

    def test_non_affine_square_values_rejected(self, square):
        # On a square f(v1) + f(v4) = f(v2) + f(v3) must hold; (1,0,0,1) breaks it.
        with pytest.raises(RepresentabilityError):
            effect_from_vertex_values(square, [1.0, 0.0, 0.0, 1.0])

    def test_constant_values_give_scaled_unit(self, square):
        eff = effect_from_vertex_values(square, [0.3, 0.3, 0.3, 0.3])
        assert np.allclose(eff.vertex_values(square), 0.3, atol=1e-12)

    def test_wrong_count_rejected(self, triangle):
        with pytest.raises(ValueError, match=r"expected 3 vertex values, got shape \(2,\)"):
            effect_from_vertex_values(triangle, [0.2, 0.4])

    def test_out_of_range_values_rejected(self, triangle):
        with pytest.raises(EffectRangeError):
            effect_from_vertex_values(triangle, [0.2, 1.5, 0.4])

    def test_non_finite_value_names_its_index(self, triangle):
        message = r"^effect value nan at vertex \[0\.0, 1\.0\] \(index 2\) outside"
        with pytest.raises(EffectRangeError, match=message):
            effect_from_vertex_values(triangle, [0.2, 0.9, np.nan])


class TestEvaluate:
    def test_unit_is_one(self, square):
        u = unit_effect(2)
        assert u([0.3, -0.7]) == 1.0

    def test_sharp_effect_at_corner(self, square):
        e_x = effect_from_affine(square, [0.5, 0.5, 0.0])
        assert e_x([1.0, 1.0]) == pytest.approx(1.0)

    def test_zero_everywhere(self):
        assert zero_effect(3)([0.1, 0.2, 0.3]) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match=r"^point has 3 coordinates, effect dimension 2$"):
            Effect([0.5, 0.5, 0.0])([1.0, 2.0, 3.0])

    def test_affinity(self, square):
        rng = np.random.default_rng(3)
        eff = effect_from_affine(square, [0.4, 0.1, -0.2])
        for _ in range(50):
            x = rng.uniform(-1, 1, 2)
            y = rng.uniform(-1, 1, 2)
            lam = rng.uniform(0, 1)
            direct = eff(lam * x + (1 - lam) * y)
            mixed = lam * eff(x) + (1 - lam) * eff(y)
            assert direct == pytest.approx(mixed, abs=1e-12)


class TestOrder:
    def test_every_effect_below_unit(self, square):
        eff = effect_from_affine(square, [0.4, 0.1, -0.2])
        assert leq(eff, unit_effect(2), square)

    def test_zero_below_every_effect(self, square):
        eff = effect_from_affine(square, [0.4, 0.1, -0.2])
        assert leq(zero_effect(2), eff, square)

    def test_incomparable_pair(self, segment):
        f = effect_from_vertex_values(segment, [0.5, 0.2])
        g = effect_from_vertex_values(segment, [0.4, 0.9])
        assert not leq(f, g, segment)
        assert not leq(g, f, segment)

    def test_partial_order_properties(self, square):
        rng = np.random.default_rng(11)
        effs = []
        for _ in range(12):
            c = rng.uniform(-0.2, 0.2, 3)
            c[0] = rng.uniform(0.45, 0.55)  # vertex values stay inside [0.05, 0.95]
            effs.append(effect_from_affine(square, c))
        for f in effs:
            assert leq(f, f, square)  # reflexive
        for f in effs:
            for g in effs:
                if leq(f, g, square) and leq(g, f, square):  # antisymmetric
                    assert np.allclose(
                        f.vertex_values(square), g.vertex_values(square), atol=2e-9
                    )
                for h in effs:  # transitive
                    if leq(f, g, square) and leq(g, h, square):
                        assert leq(f, h, square)


class TestComplement:
    def test_complement_of_unit_is_zero(self):
        assert np.array_equal(complement(unit_effect(2)).coefficients, np.zeros(3))

    def test_complement_of_zero_is_unit(self):
        assert np.array_equal(
            complement(zero_effect(2)).coefficients, unit_effect(2).coefficients
        )

    def test_complement_of_sharp_effect(self, square):
        e_x = effect_from_affine(square, [0.5, 0.5, 0.0])
        assert np.allclose(
            complement(e_x).vertex_values(square), [0.0, 0.0, 1.0, 1.0]
        )

    def test_involution_exact_on_dyadic_coefficients(self, square):
        eff = effect_from_affine(square, [0.5, 0.25, -0.125])
        twice = complement(complement(eff))
        assert np.array_equal(twice.coefficients, eff.coefficients)

    def test_involution_within_one_ulp_generally(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            c = rng.uniform(-1, 1, 4)
            twice = complement(complement(Effect(c)))
            assert np.max(np.abs(twice.coefficients - c)) <= 4e-16


class TestObservables:
    def test_dichotomic_is_observable(self, square):
        eff = effect_from_affine(square, [0.4, 0.1, -0.2])
        assert not observable_diagnostics(dichotomic_observable(eff), square)

    def test_double_unit_is_not(self, square):
        u = unit_effect(2)
        obs = Observable(outcomes=(0, 1), effects=(u, u))
        assert observable_diagnostics(obs, square)

    def test_three_part_split_of_unit(self, square):
        parts = (
            Effect([0.5, 0.0, 0.0]),
            Effect([0.25, 0.0, 0.0]),
            Effect([0.25, 0.0, 0.0]),
        )
        obs = Observable(outcomes=("a", "b", "c"), effects=parts)
        assert not observable_diagnostics(obs, square)

    def test_component_out_of_range_is_diagnosed(self, square):
        obs = Observable(outcomes=(0, 1), effects=(Effect([2.0, 0, 0]), Effect([-1.0, 0, 0])))
        issues = observable_diagnostics(obs, square)
        assert any("component 0" in msg for msg in issues)

    @pytest.mark.parametrize("outcomes, n_effects, issue", [
        ((0,), 2, "1 outcome labels but 2 effects"),
        ((), 0, "observable has no effects"),
    ], ids=["mismatched-labels", "no-effects"])
    def test_a_malformed_observable_is_diagnosed(self, square, outcomes, n_effects, issue):
        half = Effect([0.5, 0.0, 0.0])
        obs = Observable(outcomes=outcomes, effects=(half,) * n_effects)
        assert issue in observable_diagnostics(obs, square)


class TestSeparation:
    def test_coordinate_effect_range(self, square):
        h = coordinate_effect(square, 0)
        vals = h.vertex_values(square)
        assert vals.min() == pytest.approx(0.0)
        assert vals.max() == pytest.approx(1.0)

    def test_all_vertex_pairs_separated(self, square, triangle, segment):
        for space in (square, triangle, segment):
            k = space.n_vertices
            for i in range(k):
                for j in range(i + 1, k):
                    h = separating_effect(space, i, j)
                    vals = h.vertex_values(space)
                    assert abs(vals[i] - vals[j]) > 0.0

    def test_degenerate_axis_rejected(self, segment):
        with pytest.raises(ValueError):
            coordinate_effect(segment, 1)

    def test_constant_axis_rejected(self):
        flat = make_state_space([[0.0, 2.0], [1.0, 2.0]])
        with pytest.raises(ValueError, match="coordinate 1 is constant over the vertex set"):
            coordinate_effect(flat, 1)

    @pytest.mark.parametrize("i, j, bad", [(0, 5, 5), (0, -1, -1), (4, 0, 4)],
                             ids=["past-the-end", "negative", "first"])
    def test_vertex_outside_the_space_rejected(self, square, i, j, bad):
        # a negative index must not wrap to a vertex counted from the end
        with pytest.raises(ValueError, match=f"^vertex {bad} out of range for 4 vertices$"):
            separating_effect(square, i, j)

    def test_an_index_that_is_not_an_integer_is_named(self, square):
        with pytest.raises(TypeError, match=r"^axis must be an integer, got 1\.0$"):
            coordinate_effect(square, 1.0)
        with pytest.raises(TypeError, match=r"^vertex index j must be an integer, got 1\.0$"):
            separating_effect(square, 0, 1.0)
        with pytest.raises(TypeError, match=r"^vertex index i must be an integer, got '0'$"):
            separating_effect(square, "0", 1)

    def test_a_bool_or_numpy_index_reads_as_its_integer(self):
        # True is 1, as in the zoo builders, not a boolean mask over the columns
        rectangle = make_state_space([[0.0, 0.0], [2.0, 0.0], [0.0, 1.0], [2.0, 1.0]])
        for axis in (True, np.int64(1)):
            values = coordinate_effect(rectangle, axis).vertex_values(rectangle)
            assert values.tolist() == [0.0, 0.0, 1.0, 1.0]
        for i in (True, np.int64(1)):
            expected = coordinate_effect(rectangle, 0).coefficients
            assert np.array_equal(separating_effect(rectangle, i, 0).coefficients, expected)

    def test_coincident_vertices_rejected(self):
        space = core.StateSpace([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0]])  # no dedup
        with pytest.raises(ValueError, match="vertices 1 and 2 coincide"):
            separating_effect(space, 1, 2)
