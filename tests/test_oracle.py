import dataclasses
import tracemalloc

import numpy as np
import pytest

import effectcompat.oracle as oracle

from effectcompat.compat import compute_lambda0, depolarizing_kernel, random_effect, smear
from effectcompat.core import (
    Effect,
    EffectRangeError,
    dichotomic_observable,
    effect_from_affine,
    effect_from_vertex_values,
    make_state_space,
    unit_effect,
)
from effectcompat.models import gbit_square, hypercube, regular_polygon, simplex, zoo_model
from effectcompat.oracle import cross_check, grid_lambda0
from effectcompat.tolerances import DEFAULT_TOLERANCES, SolverTolerances


@pytest.fixture
def square():
    return gbit_square()


@pytest.fixture
def sharp_pair(square):
    return (
        effect_from_affine(square, [0.5, 0.5, 0.0]),
        effect_from_affine(square, [0.5, 0.0, 0.5]),
    )


class TestClosedForm:
    """The simplex closed form max_v max(e, f) is the grid's lower bound."""

    @staticmethod
    def closed_form(e_values, f_values):
        space = simplex(len(e_values))
        e = effect_from_vertex_values(space, e_values)
        f = effect_from_vertex_values(space, f_values)
        return grid_lambda0(space, e, f).lower_bound

    def test_example_pair(self):
        assert self.closed_form([0.2, 0.9, 0.4], [0.8, 0.1, 0.5]) == pytest.approx(0.9)

    def test_equal_effects(self):
        assert self.closed_form([0.3, 0.7, 0.1], [0.3, 0.7, 0.1]) == pytest.approx(0.7)

    def test_all_zero(self):
        assert self.closed_form([0.0, 0.0], [0.0, 0.0]) == 0.0


class TestGrid:
    def test_sharp_pair_exact(self, square, sharp_pair):
        # g = 0 is on the grid and is the only feasible witness, so the
        # enumeration returns e+f at the (1,1) corner exactly.
        grid = grid_lambda0(square, *sharp_pair, resolution=101)
        assert grid.value == 2.0
        assert grid.lower_bound == 1.0
        assert not grid.box_expanded

    def test_triangle_pair_converges_to_closed_form(self):
        space = simplex(3)
        e = effect_from_vertex_values(space, [0.2, 0.9, 0.4])
        f = effect_from_vertex_values(space, [0.8, 0.1, 0.5])
        grid = grid_lambda0(space, e, f, resolution=101)
        assert grid.value == pytest.approx(0.9, abs=0.02)
        assert grid.value >= 0.9 - 1e-12  # upper bound never undercuts

    def test_half_unit_pair(self, square):
        half = Effect(unit_effect(2).coefficients * 0.5)
        grid = grid_lambda0(square, half, half, resolution=101)
        assert grid.value == pytest.approx(0.5, abs=grid.step_bound + 1e-12)

    def test_monotone_under_refinement(self, square, sharp_pair):
        # linspace(-1, 1, 2r-1) contains linspace(-1, 1, r), so refining
        # never loses a feasible candidate.
        e, f = sharp_pair
        coarse = grid_lambda0(square, e, f, resolution=11)
        fine = grid_lambda0(square, e, f, resolution=21)
        assert fine.value <= coarse.value + 1e-9

    def test_box_expansion_flagged(self):
        # On a short segment the sharp effect needs slope 10, outside [-1, 1].
        space = make_state_space([[0.0], [0.1]], name="short")
        e = effect_from_vertex_values(space, [0.0, 1.0])
        f = effect_from_vertex_values(space, [1.0, 0.0])
        grid = grid_lambda0(space, e, f, resolution=41)
        assert grid.box_expanded
        report = compute_lambda0(space, e, f)
        assert grid.lower_bound - 1e-9 <= report.lambda0 <= grid.value + grid.step_bound + 1e-9

    def test_dimension_cap(self):
        space = make_state_space(np.eye(4).tolist(), name="4d")
        u = unit_effect(4)
        with pytest.raises(ValueError):
            grid_lambda0(space, u, u)

    def test_resolution_validation(self, square, sharp_pair):
        with pytest.raises(ValueError):
            grid_lambda0(square, *sharp_pair, resolution=1)

    @pytest.mark.parametrize("value", [float("nan"), 1.5])
    def test_rejects_an_effect_outside_the_unit_interval(self, square, sharp_pair, value):
        # as every other entry point: before, NaN gave value=inf, lower_bound=nan
        # and 1.5 the bracket [1.5, 1.5]
        bad = Effect([value, 0.0, 0.0])
        for pair in ((bad, sharp_pair[1]), (sharp_pair[0], bad)):
            with pytest.raises(EffectRangeError, match=r"at vertex \[1\.0, 1\.0\] \(index 0\)"):
                grid_lambda0(square, *pair, resolution=11)

    def test_candidate_cap_is_inclusive(self, square, sharp_pair, monkeypatch):
        half = effect_from_affine(hypercube(3), [0.5, 0.0, 0.0, 0.0])
        assert grid_lambda0(hypercube(3), half, half).n_feasible > 0  # 51**4 candidates
        monkeypatch.setattr(oracle, "MAX_GRID_CANDIDATES", 9**3)
        assert grid_lambda0(square, *sharp_pair, resolution=9).n_feasible > 0
        with pytest.raises(ValueError,
                           match=r"at most 729 candidates, got resolution 10\*\*3 = 1000"):
            grid_lambda0(square, *sharp_pair, resolution=10)
        monkeypatch.setattr(oracle, "MAX_GRID_CANDIDATES", 9**3 - 1)
        with pytest.raises(ValueError, match="at most 728 candidates"):
            grid_lambda0(square, *sharp_pair, resolution=9)

    def test_peak_memory_does_not_grow_with_the_vertex_count(self):
        # 51**3 candidates over 128 and 512 vertices: 136 and 543 MB of
        # candidate values in one piece, about 17 MB at a time in chunks
        rng = np.random.default_rng(3)
        for k in (128, 512):
            space = regular_polygon(k)
            e, f = (random_effect(space, rng) for _ in range(2))
            tracemalloc.start()
            try:
                grid = grid_lambda0(space, e, f, resolution=51)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert grid.lower_bound <= grid.value
            assert peak < 32e6, (k, peak)

    def test_sandwich_on_random_pairs(self, square):
        rng = np.random.default_rng(59)
        for space in (square, simplex(3), regular_polygon(5)):
            for _ in range(6):
                e = random_effect(space, rng)
                f = random_effect(space, rng)
                report = compute_lambda0(space, e, f)
                grid = grid_lambda0(space, e, f, resolution=21)
                assert report.lambda0 >= grid.lower_bound - 1e-9
                assert report.lambda0 <= grid.value + grid.step_bound + 1e-9

    def test_depolarized_sharp_pair_boundary(self, square, sharp_pair):
        # Grid confirmation for the depolarizing golden value t* = 1/2:
        # at t = 1/2 the pair sits exactly on the compatibility boundary.
        e, f = sharp_pair
        et, ft = (smear(dichotomic_observable(x), depolarizing_kernel(0.5)).effects[0]
                  for x in (e, f))
        report = compute_lambda0(square, et, ft)
        assert report.lambda0 == pytest.approx(1.0, abs=1e-9)
        grid = grid_lambda0(square, et, ft, resolution=101)
        assert grid.lower_bound - 1e-9 <= 1.0 <= grid.value + grid.step_bound + 1e-9


class TestCrossCheck:
    def test_triangle_example_agrees(self):
        space = simplex(3)
        e = effect_from_vertex_values(space, [0.2, 0.9, 0.4])
        f = effect_from_vertex_values(space, [0.8, 0.1, 0.5])
        result = cross_check(space, e, f, resolution=101)
        assert result.ok, result.discrepancies
        assert result.closed_form == pytest.approx(0.9)
        assert result.lp_lambda0 == pytest.approx(0.9, abs=1e-9)

    @pytest.mark.parametrize("shift, caught", [
        (0.5, ("differs from the simplex closed form 0.9", "exceeds the grid upper bound 0.9")),
        (-0.5, ("differs from the simplex closed form 0.9", "undercuts the lower bound 0.9")),
        (1e-6, ("differs from the simplex closed form 0.9",)),
    ], ids=["up", "down", "off-the-closed-form"])
    def test_a_wrong_lambda0_is_caught(self, monkeypatch, shift, caught):
        # lambda0 shifted inside cross_check only: up past the grid's upper
        # bound, down below its lower bound, and off the closed form by less
        # than the grid step
        def shifted(*args):
            report = compute_lambda0(*args)
            return dataclasses.replace(report, lambda0=report.lambda0 + shift)

        monkeypatch.setattr(oracle, "compute_lambda0", shifted)
        space = simplex(3)
        e = effect_from_vertex_values(space, [0.2, 0.9, 0.4])
        f = effect_from_vertex_values(space, [0.8, 0.1, 0.5])
        result = cross_check(space, e, f, resolution=41)
        assert not result.ok
        assert len(result.discrepancies) == len(caught)
        for issue, fragment in zip(result.discrepancies, caught):
            assert fragment in issue

    def test_sharp_pair_agrees(self, square, sharp_pair):
        result = cross_check(square, *sharp_pair, resolution=101)
        assert result.ok, result.discrepancies
        assert result.closed_form is None  # square is not a simplex
        assert result.grid.value == 2.0
        assert result.lp_lambda0 == pytest.approx(2.0, abs=1e-9)

    def test_self_pair(self, square):
        e = effect_from_affine(square, [0.4, 0.1, -0.2])
        result = cross_check(square, e, e, resolution=41)
        assert result.ok, result.discrepancies
        assert result.lp_lambda0 == pytest.approx(
            float(e.vertex_values(square).max()), abs=1e-9
        )

    def test_closed_form_reads_the_callers_tolerances(self):
        # e exceeds 1 by 5e-7, inside eps_geom = 1e-6 but outside the default
        space = simplex(3)
        tol = SolverTolerances(eps_geom=1e-6)
        result = cross_check(space, Effect([1.0 + 5e-7, 0.0, 0.0]), Effect([0.5, 0.0, 0.0]),
                             tol, resolution=11)
        assert result.closed_form == result.grid.lower_bound == 1.0 + 5e-7
        assert result.lp_lambda0 == pytest.approx(1.0 + 5e-7, abs=tol.eps_opt)
        assert result.ok, result.discrepancies

    def test_a_triangle_tilted_into_r3_is_a_simplex(self):
        rotation = np.linalg.qr(np.random.default_rng(4).normal(size=(3, 3)))[0]
        space = make_state_space(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                                           [0.0, 1.0, 0.0]]) @ rotation.T + 0.5)
        e = effect_from_vertex_values(space, [0.2, 0.9, 0.4])
        f = effect_from_vertex_values(space, [0.8, 0.1, 0.5])
        result = cross_check(space, e, f, resolution=11)
        assert result.closed_form == pytest.approx(0.9, abs=1e-12)
        assert abs(result.lp_lambda0 - result.closed_form) <= DEFAULT_TOLERANCES.eps_opt
        assert result.ok, result.discrepancies

    def test_zoo_simplices_match_closed_form(self):
        rng = np.random.default_rng(61)
        for name in ("simplex-2", "simplex-3"):
            space, _ = zoo_model(name)
            for _ in range(5):
                e = random_effect(space, rng)
                f = random_effect(space, rng)
                result = cross_check(space, e, f, resolution=21)
                assert result.ok, result.discrepancies
                assert result.closed_form is not None
