import numpy as np
import pytest

import effectcompat.lp as lp
from effectcompat.lp import (
    EQ,
    GE,
    LE,
    LpInputError,
    LpProblem,
    LpStatus,
    SolverFailure,
    check_feasible,
    solve_lp,
)


def test_single_active_bound_row():
    # minimize x subject to x >= 1
    prob = LpProblem([1.0], [[1.0]], (GE,), [1.0])
    res = solve_lp(prob)
    assert res.status is LpStatus.OPTIMAL
    assert res.value == pytest.approx(1.0, abs=1e-9)
    assert res.point[0] == pytest.approx(1.0, abs=1e-9)


def test_single_active_bound_as_variable_bound():
    prob = LpProblem([1.0], np.zeros((0, 1)), (), [], bounds=((1.0, None),))
    res = solve_lp(prob)
    assert res.status is LpStatus.OPTIMAL
    assert res.value == pytest.approx(1.0, abs=1e-9)


def test_unit_simplex_vertex():
    # minimize -x - y subject to x + y <= 1, x >= 0, y >= 0
    prob = LpProblem(
        [-1.0, -1.0],
        [[1.0, 1.0]],
        (LE,),
        [1.0],
        bounds=((0.0, None), (0.0, None)),
    )
    res = solve_lp(prob)
    assert res.status is LpStatus.OPTIMAL
    assert res.value == pytest.approx(-1.0, abs=1e-9)


def test_contradictory_rows_infeasible():
    # minimize x subject to x <= 0 and x >= 1
    prob = LpProblem([1.0], [[1.0], [1.0]], (LE, GE), [0.0, 1.0])
    res = solve_lp(prob)
    assert res.status is LpStatus.INFEASIBLE
    assert res.value is None and res.point is None


def test_unbounded_free_variable():
    prob = LpProblem([1.0], np.zeros((0, 1)), (), [])
    res = solve_lp(prob)
    assert res.status is LpStatus.UNBOUNDED


def test_upper_bound_only():
    prob = LpProblem([-1.0], np.zeros((0, 1)), (), [], bounds=((None, 5.0),))
    res = solve_lp(prob)
    assert res.status is LpStatus.OPTIMAL
    assert res.value == pytest.approx(-5.0, abs=1e-9)
    assert res.point[0] == pytest.approx(5.0, abs=1e-9)


def test_two_sided_bounds_and_equality():
    # minimize x + y subject to x + 2y = 3, 0 <= x <= 10, -1 <= y <= 1
    prob = LpProblem(
        [1.0, 1.0],
        [[1.0, 2.0]],
        (EQ,),
        [3.0],
        bounds=((0.0, 10.0), (-1.0, 1.0)),
    )
    res = solve_lp(prob)
    assert res.status is LpStatus.OPTIMAL
    # optimum at x = 1, y = 1
    assert res.value == pytest.approx(2.0, abs=1e-9)
    assert np.allclose(res.point, [1.0, 1.0], atol=1e-9)


def test_row_length_mismatch_is_input_error():
    with pytest.raises(LpInputError):
        LpProblem([1.0, 2.0], [[1.0]], (LE,), [1.0])


def test_bad_bounds_are_input_error():
    with pytest.raises(LpInputError):
        LpProblem([1.0], np.zeros((0, 1)), (), [], bounds=((2.0, 1.0),))


def test_unknown_relation_is_input_error():
    with pytest.raises(LpInputError):
        LpProblem([1.0], [[1.0]], ("<",), [1.0])


def test_duplicate_rows_are_harmless():
    rows = [[1.0, 1.0]] * 4 + [[1.0, -1.0]]
    rels = (LE, LE, LE, LE, GE)
    prob = LpProblem([-1.0, 0.0], rows, rels, [1.0, 1.0, 1.0, 1.0, 0.0],
                     bounds=((0.0, None), (0.0, None)))
    res = solve_lp(prob)
    assert res.status is LpStatus.OPTIMAL
    assert res.value == pytest.approx(-1.0, abs=1e-9)


def test_row_permutation_preserves_value():
    rng = np.random.default_rng(7)
    rows = [[2.0, 1.0], [1.0, 3.0], [1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]
    rels = (LE, LE, GE, GE, LE)
    rhs = [8.0, 9.0, 0.0, 0.0, -1.0]
    base = solve_lp(LpProblem([-3.0, -5.0], rows, rels, rhs))
    assert base.status is LpStatus.OPTIMAL
    for _ in range(10):
        perm = rng.permutation(len(rows))
        shuffled = LpProblem(
            [-3.0, -5.0],
            [rows[i] for i in perm],
            tuple(rels[i] for i in perm),
            [rhs[i] for i in perm],
        )
        res = solve_lp(shuffled)
        assert res.status is LpStatus.OPTIMAL
        assert res.value == pytest.approx(base.value, abs=1e-9)


def test_value_matches_objective_at_point():
    prob = LpProblem(
        [1.0, -2.0, 0.5],
        [[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]],
        (LE, GE),
        [4.0, -2.0],
        bounds=((0.0, None), (0.0, 3.0), (-1.0, 1.0)),
    )
    res = solve_lp(prob)
    assert res.status is LpStatus.OPTIMAL
    assert res.value == pytest.approx(float(prob.objective @ res.point), abs=1e-9)


def test_deterministic_resolve():
    prob = LpProblem(
        [-1.0, -1.0],
        [[1.0, 2.0], [3.0, 1.0]],
        (LE, LE),
        [4.0, 6.0],
        bounds=((0.0, None), (0.0, None)),
    )
    a = solve_lp(prob)
    b = solve_lp(prob)
    assert a.value == b.value
    assert np.array_equal(a.point, b.point)
    assert a.iterations == b.iterations


def test_iteration_cap_raises_solver_failure(monkeypatch):
    monkeypatch.setattr(lp, "ITERATION_CAP_FACTOR", 0)
    prob = LpProblem(
        [-1.0, -1.0],
        [[1.0, 2.0], [3.0, 1.0]],
        (LE, LE),
        [4.0, 6.0],
        bounds=((0.0, None), (0.0, None)),
    )
    with pytest.raises(SolverFailure):
        solve_lp(prob)


def test_check_feasible_interval():
    prob = LpProblem([0.0], [[1.0], [1.0]], (GE, LE), [1.0, 2.0])
    assert check_feasible(prob) is True


def test_check_feasible_empty_interval():
    prob = LpProblem([0.0], [[1.0], [1.0]], (GE, LE), [1.0, 0.0])
    assert check_feasible(prob) is False


# Reference: the full-tableau pivot as it was before the sparse column
# update.  Every nonzero entry gets the same floating-point operation in
# both, so solve_lp must return ==-equal results.
def _reference_pivot(T, basis, row, col):
    T[row] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= np.outer(factors, T[row])
    T[:, col] = 0.0
    T[row, col] = 1.0
    basis[row] = col


def _general_form_problems():
    free = (None, None)
    nonneg = (0.0, None)
    return [
        LpProblem([1.0], [[1.0]], (GE,), [1.0]),
        LpProblem([1.0], np.zeros((0, 1)), (), [], bounds=((1.0, None),)),
        LpProblem([-1.0, -1.0], [[1.0, 1.0]], (LE,), [1.0], bounds=(nonneg, nonneg)),
        LpProblem([1.0], [[1.0], [1.0]], (LE, GE), [0.0, 1.0]),
        LpProblem([1.0], np.zeros((0, 1)), (), []),
        LpProblem([-1.0], np.zeros((0, 1)), (), [], bounds=((None, 5.0),)),
        LpProblem([1.0, 1.0], [[1.0, 2.0]], (EQ,), [3.0],
                  bounds=((0.0, 10.0), (-1.0, 1.0))),
        LpProblem([-1.0, 0.0], [[1.0, 1.0]] * 4 + [[1.0, -1.0]],
                  (LE, LE, LE, LE, GE), [1.0, 1.0, 1.0, 1.0, 0.0], bounds=(nonneg, nonneg)),
        LpProblem([-3.0, -5.0], [[2.0, 1.0], [1.0, 3.0], [1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]],
                  (LE, LE, GE, GE, LE), [8.0, 9.0, 0.0, 0.0, -1.0], bounds=(free, free)),
        LpProblem([1.0, -2.0, 0.5], [[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]], (LE, GE),
                  [4.0, -2.0], bounds=((0.0, None), (0.0, 3.0), (-1.0, 1.0))),
        LpProblem([0.0], [[1.0], [1.0]], (GE, LE), [1.0, 0.0]),
    ]


def _lambda_problems():
    from effectcompat import compat, models

    rng = np.random.default_rng(5)
    problems = []
    for space in (models.regular_polygon(16), models.regular_polygon(64),
                  models.hypercube(4), models.hypercube(5)):
        for span in ((0.2, 1.0), (1.0, 1.0)):
            e = compat.random_effect(space, rng, span_range=span)
            f = compat.random_effect(space, rng, span_range=span)
            problems.append(compat._lambda_problem(
                space, e.vertex_values(space), f.vertex_values(space)))
    return problems


def _hull_problems(monkeypatch):
    import effectcompat.core as core

    captured = []

    def record(problem, tol=None):
        captured.append(problem)
        return check_feasible(problem, tol)

    rng = np.random.default_rng(9)
    with monkeypatch.context() as m:
        m.setattr(core, "check_feasible", record)
        for d, k in ((2, 12), (3, 20), (5, 30)):
            cloud = rng.normal(size=(k, d))
            for i in range(k):
                core._point_in_hull(cloud[i], np.delete(cloud, i, axis=0),
                                    lp.DEFAULT_TOLERANCES)
    return captured


def _solve_all(problems):
    out = []
    for prob in problems:
        try:
            out.append((solve_lp(prob), check_feasible(prob)))
        except SolverFailure as exc:
            out.append((str(exc), None))
    return out


@pytest.mark.parametrize("saving", [lp._SPARSE_PIVOT_SAVING, -np.inf, np.inf],
                         ids=["size-rule", "always-sparse", "always-full"])
def test_sparse_pivot_matches_the_full_outer_product(monkeypatch, saving):
    hull = _hull_problems(monkeypatch)
    assert len(hull) == 12 + 20 + 30
    problems = _general_form_problems() + _lambda_problems() + hull
    with monkeypatch.context() as m:
        m.setattr(lp, "_SPARSE_PIVOT_SAVING", saving)
        actual = _solve_all(problems)
    monkeypatch.setattr(lp, "_pivot", _reference_pivot)
    expected = _solve_all(problems)
    for i, ((res, feas), (ref, ref_feas)) in enumerate(zip(actual, expected)):
        if isinstance(ref, str):
            assert res == ref, i
            continue
        assert feas == ref_feas, i
        assert res.status is ref.status, i
        assert res.iterations == ref.iterations, i
        assert res.value == ref.value, i
        assert (res.point is None) == (ref.point is None), i
        if ref.point is not None:
            assert np.array_equal(res.point, ref.point), i
