import tracemalloc

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


def test_unit_simplex_vertex():
    # minimize -x - y subject to x + y <= 1, x >= 0, y >= 0
    prob = LpProblem([-1.0, -1.0], [[1.0, 1.0]], (LE,), [1.0])
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
    # minimize -y over y >= 0, with no row to stop it
    prob = LpProblem([-1.0], np.zeros((0, 1)), (), [])
    res = solve_lp(prob)
    assert res.status is LpStatus.UNBOUNDED


def test_row_length_mismatch_is_input_error():
    with pytest.raises(LpInputError):
        LpProblem([1.0, 2.0], [[1.0]], (LE,), [1.0])


def test_unknown_relation_is_input_error():
    with pytest.raises(LpInputError):
        LpProblem([1.0], [[1.0]], ("<",), [1.0])


def test_duplicate_rows_are_harmless():
    for rows, rels, rhs in (
        ([[1.0, 1.0]] * 4 + [[1.0, -1.0]], (LE, LE, LE, LE, GE), [1.0, 1.0, 1.0, 1.0, 0.0]),
        # Redundant equalities: phase one leaves artificials on all-zero rows,
        # which are dropped before phase two.
        ([[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]], (EQ, EQ, EQ), [1.0, 1.0, 2.0]),
    ):
        res = solve_lp(LpProblem([-1.0, 0.0], rows, rels, rhs))
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
        [[1.0, 1.0, 1.0], [1.0, -1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        (LE, GE, LE, LE),
        [5.0, -2.0, 3.0, 2.0],
    )
    res = solve_lp(prob)
    assert res.status is LpStatus.OPTIMAL
    assert res.value == pytest.approx(float(prob.objective @ res.point), abs=1e-9)


def test_deterministic_resolve():
    prob = LpProblem([-1.0, -1.0], [[1.0, 2.0], [3.0, 1.0]], (LE, LE), [4.0, 6.0])
    a = solve_lp(prob)
    b = solve_lp(prob)
    assert a.value == b.value
    assert np.array_equal(a.point, b.point)
    assert a.iterations == b.iterations


def test_iteration_cap_raises_solver_failure(monkeypatch):
    monkeypatch.setattr(lp, "ITERATION_CAP_FACTOR", 0)
    prob = LpProblem([-1.0, -1.0], [[1.0, 2.0], [3.0, 1.0]], (LE, LE), [4.0, 6.0])
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
    return [
        LpProblem([1.0], [[1.0]], (GE,), [1.0]),
        # a free x >= 1 as x = y0 - y1: phase one through a >= row
        LpProblem([1.0, -1.0], [[1.0, -1.0]], (GE,), [1.0]),
        LpProblem([-1.0, -1.0], [[1.0, 1.0]], (LE,), [1.0]),
        LpProblem([1.0], [[1.0], [1.0]], (LE, GE), [0.0, 1.0]),
        LpProblem([-1.0], np.zeros((0, 1)), (), []),
        LpProblem([-1.0], [[1.0]], (LE,), [5.0]),
        # x + 2y = 3 with 0 <= x <= 10, -1 <= y <= 1, shifted to y + 1 >= 0
        LpProblem([1.0, 1.0], [[1.0, 2.0], [1.0, 0.0], [0.0, 1.0]], (EQ, LE, LE),
                  [5.0, 10.0, 2.0]),
        LpProblem([-1.0, 0.0], [[1.0, 1.0]] * 4 + [[1.0, -1.0]],
                  (LE, LE, LE, LE, GE), [1.0, 1.0, 1.0, 1.0, 0.0]),
        LpProblem([-3.0, -5.0], [[2.0, 1.0], [1.0, 3.0], [1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]],
                  (LE, LE, GE, GE, LE), [8.0, 9.0, 0.0, 0.0, -1.0]),
        LpProblem([1.0, -2.0, 0.5],
                  [[1.0, 1.0, 1.0], [1.0, -1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
                  (LE, GE, LE, LE), [5.0, -2.0, 3.0, 2.0]),
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


def test_negative_point_fails_verification():
    prob = LpProblem([0.0, 0.0], [[1.0, 1.0]], (LE,), [1.0])
    lp._verify_solution(prob, np.array([0.5, -1e-10]), 1e-9)
    with pytest.raises(SolverFailure, match="lower bound on variable 1"):
        lp._verify_solution(prob, np.array([0.5, -1e-8]), 1e-9)


def _witness_and_hull_problems(monkeypatch):
    """The LPs the package poses: lambda, eq3, depolarizing and hull."""
    import effectcompat.compat as compat
    import effectcompat.core as core
    from effectcompat import models

    captured = {}

    def recorder(kind, fn):
        def record(problem, tol=None):
            captured.setdefault(kind, problem)
            return fn(problem, tol)
        return record

    space, effects = models.zoo_model("gbit")
    e, f = effects["e_x"], effects["e_y"]
    with monkeypatch.context() as m:
        m.setattr(compat, "solve_lp", recorder("lambda", solve_lp))
        compat.compute_lambda0(space, e, f)
        m.setattr(compat, "solve_lp", recorder("depolarizing", solve_lp))
        compat.min_depolarizing_noise(space, e, f)
        m.setattr(compat, "check_feasible", recorder("eq3", check_feasible))
        compat.eq3_feasible(space, e, f)
        m.setattr(core, "check_feasible", recorder("hull", check_feasible))
        core._point_in_hull(np.zeros(2), space.vertices, lp.DEFAULT_TOLERANCES)
    return captured


def test_tracer_tableau_shape_matches_the_solver(monkeypatch):
    # perfbench's per-layer tableau metrics count columns from
    # LpProblem.bounds; this keeps that count equal to the solver's tableau.
    from perfbench.tracing import tableau_shape

    problems = _witness_and_hull_problems(monkeypatch)
    assert sorted(problems) == ["depolarizing", "eq3", "hull", "lambda"]
    for kind, problem in problems.items():
        T, _, _ = lp._build_tableau(problem.rows, problem.relations, problem.rhs)
        assert tableau_shape(problem) == T.shape, kind


def test_oversize_tableau_is_rejected_before_allocation(monkeypatch, tmp_path, capsys):
    from effectcompat import cli, compat, models
    from effectcompat.core import coordinate_effect

    space = models.hypercube(7)
    e, f = coordinate_effect(space, 0), coordinate_effect(space, 1)
    problem = compat._lambda_problem(space, e.vertex_values(space), f.vertex_values(space))
    rows, cols = lp._build_tableau(problem.rows, problem.relations, problem.rhs)[0].shape
    monkeypatch.setattr(lp, "_MAX_TABLEAU_BYTES", 8 * rows * cols - 1)
    tracemalloc.start()
    try:
        with pytest.raises(SolverFailure, match=rf"{rows} rows x {cols} columns .* GB"):
            compat.compute_lambda0(space, e, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * rows * cols / 4  # the LP's own arrays, never the tableau
    path = tmp_path / "hypercube-7.json"
    models.save_model(path, space, {"x1": e, "x2": f})
    assert cli.main(["check", str(path), "x1", "x2"]) == 2
    assert "dense tableau" in capsys.readouterr().err
