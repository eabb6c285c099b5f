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


# Reference: the full-tableau pivot, row by row.  Every entry gets the same
# floating-point operation in _pivot's column-wise update, so solve_lp must
# return ==-equal results.
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


# The id names the one update _pivot makes: every column of the tableau.
@pytest.mark.parametrize("pivot", [lp._pivot], ids=["always-full"])
def test_sparse_pivot_matches_the_full_outer_product(monkeypatch, pivot):
    hull = _hull_problems(monkeypatch)
    assert len(hull) == 12 + 20 + 30
    problems = _general_form_problems() + _lambda_problems() + hull
    with monkeypatch.context() as m:
        m.setattr(lp, "_pivot", pivot)
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


def _reference_verify(problem, y, eps):
    """The per-row loop that _verify_solution's numpy pass replaced."""
    lhs = problem.rows @ y
    for i, rel in enumerate(problem.relations):
        r = lhs[i] - problem.rhs[i]
        bad = (rel == LE and r > eps) or (rel == GE and r < -eps) or (rel == EQ and abs(r) > eps)
        if bad:
            raise SolverFailure(
                f"returned point violates constraint {i} ({rel} residual {r:.3e})"
            )
    negative = np.flatnonzero(y < -eps)
    if negative.size:
        raise SolverFailure(f"returned point violates lower bound on variable {negative[0]}")


def _failure(verify, problem, y):
    try:
        verify(problem, y, 1e-9)
    except SolverFailure as exc:
        return str(exc)
    return None


def test_verification_matches_the_row_loop():
    rng = np.random.default_rng(13)
    failures = 0
    for prob in _general_form_problems() + _lambda_problems() + _equality_problems():
        res = solve_lp(prob)
        if res.status is not LpStatus.OPTIMAL:
            continue
        for scale in (0.0, 1e-10, 1e-9, 3e-9, 1e-6):
            y = res.point + rng.normal(scale=scale, size=res.point.size)
            expected = _failure(_reference_verify, prob, y)
            assert _failure(lp._verify_solution, prob, y) == expected
            failures += expected is not None
    assert failures > 10


def test_tracer_tableau_shape_matches_the_solver(monkeypatch):
    # perfbench's per-layer tableau metrics count columns from
    # LpProblem.bounds; this keeps that count equal to the solver's tableau
    # on the package LPs that still build one: on gbit, the lambda primal.
    import effectcompat.compat as compat
    from effectcompat import models
    from perfbench.tracing import tableau_shape

    solved, shapes = [], []
    solve, build = lp.solve_lp, lp._build_tableau

    def spy_build(*args):
        T, basis, art_start = build(*args)
        shapes.append(T.shape)
        return T, basis, art_start

    monkeypatch.setattr(compat, "solve_lp",
                        lambda problem, tol=None: solved.append(problem) or solve(problem, tol))
    monkeypatch.setattr(lp, "_build_tableau", spy_build)
    space, effects = models.zoo_model("gbit")
    e, f = effects["e_x"], effects["e_y"]
    compat.compute_lambda0(space, e, f)
    compat.min_depolarizing_noise(space, e, f)
    compat.eq3_feasible(space, e, f)
    dense = [problem for problem in solved if not lp._equality_form(problem)]
    assert len(solved) == 4 and len(dense) == 2  # the lambda primal, twice
    assert shapes == [tableau_shape(problem) for problem in dense]


def test_oversize_tableau_is_rejected_before_allocation(tmp_path, capsys):
    # The lambda LP and the eq3 system of hypercube-7 are solved as (d+2)-row
    # duals: a cross-checked verdict allocates a fraction of the 513 x 531
    # dense tableau of the lambda primal.
    import json

    from effectcompat import cli, compat, models
    from effectcompat.core import coordinate_effect
    from perfbench.tracing import tableau_shape

    space = models.hypercube(7)
    e, f = coordinate_effect(space, 0), coordinate_effect(space, 1)
    rows, cols = tableau_shape(compat._lambda_problem(
        space, e.vertex_values(space), f.vertex_values(space)))
    tracemalloc.start()
    try:
        assert compat.is_compatible(space, e, f, cross_check=True) is False
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * rows * cols / 4
    pytest.importorskip("scipy")
    from perfbench import reference

    path = tmp_path / "hypercube-7.json"
    models.save_model(path, space, {"x1": e, "x2": f})
    assert cli.main(["check", str(path), "x1", "x2", "--json"]) == cli.EXIT_INCOMPATIBLE
    payload = json.loads(capsys.readouterr().out)
    m = reference.vertex_matrix(space.vertices)
    expected = reference.lambda0(m, e.vertex_values(space), f.vertex_values(space), 1e-10)
    assert payload["lambda0"] == pytest.approx(expected, abs=1e-9)


def _equality_problems():
    """Seeded all-equality LPs: feasible and bounded, possibly unbounded,
    infeasible, and with a redundant row."""
    rng = np.random.default_rng(41)
    problems = []
    for m, n in ((1, 3), (2, 5), (3, 8), (5, 12), (8, 40)):
        for case in ("bounded", "bounded", "bounded", "signed cost", "infeasible", "redundant"):
            rows = rng.normal(size=(m, n))
            if case == "redundant":
                rows[-1] = rows[0]
            y0 = rng.uniform(0.0, 1.0, size=n) * (rng.uniform(size=n) < 0.5)
            rhs = rows @ y0
            if case == "infeasible":  # nonnegative rows cannot reach a negative rhs
                rows, rhs = np.abs(rows), -1.0 - np.abs(rhs)
            # a nonnegative cost keeps a feasible problem bounded
            cost = rng.normal(size=n) if case == "signed cost" else rng.uniform(size=n)
            problems.append(LpProblem(cost, rows, (EQ,) * m, rhs))
    return problems


@pytest.mark.parametrize("run", [lp._DEGENERATE_RUN, 0], ids=["dantzig", "bland"])
def test_revised_method_matches_the_dense_tableau(monkeypatch, run):
    monkeypatch.setattr(lp, "_DEGENERATE_RUN", run)
    statuses = set()
    for prob in _equality_problems():
        res = solve_lp(prob)
        # the same rows as <= and >= pairs take the dense tableau
        dense = solve_lp(LpProblem(prob.objective, np.repeat(prob.rows, 2, axis=0),
                                   (LE, GE) * prob.n_constraints, np.repeat(prob.rhs, 2)))
        statuses.add(res.status)
        assert res.status is dense.status
        assert check_feasible(prob) == (res.status is not LpStatus.INFEASIBLE)
        if res.status is LpStatus.OPTIMAL:
            assert res.value == pytest.approx(dense.value, abs=1e-9)
            pi = res.multipliers
            assert np.all(prob.objective - prob.rows.T @ pi >= -1e-9)
            assert prob.rhs @ pi == pytest.approx(res.value, abs=1e-9)
    assert statuses == set(LpStatus)


@pytest.mark.parametrize("start, relations, match", [
    ((0,), (EQ, EQ), "2 rows but a start basis of 1"),
    ((0, 3), (EQ, EQ), "start column 3 outside"),
    ((-1, 0), (EQ, EQ), "start column -1 outside"),
    ((1, 1), (EQ, EQ), "repeats a column"),
    ((0.0, 1.0), (EQ, EQ), "column indices"),
    ((0, 1), (EQ, LE), "rows are all equalities"),
], ids=["length", "past-the-end", "negative", "repeat", "float", "not-equality"])
def test_malformed_start_is_input_error(start, relations, match):
    with pytest.raises(LpInputError, match=match):
        LpProblem([1.0, 1.0, 1.0], [[1.0, 1.0, 0.0], [1.0, -1.0, 1.0]], relations, [1.0, 0.0],
                  start)


def test_start_basis_gives_the_same_status_and_value(monkeypatch):
    # Seeded starts on the equality problems: a nonsingular, feasible start
    # skips phase one; a singular or infeasible one falls back to it.
    rng = np.random.default_rng(43)
    phase_one = []
    revised_phase_one = lp._revised_phase_one
    monkeypatch.setattr(lp, "_revised_phase_one",
                        lambda problem: phase_one.append(problem) or revised_phase_one(problem))
    kinds = {"taken": 0, "singular": 0, "infeasible": 0}
    for prob in _equality_problems():
        plain = solve_lp(prob)
        for _ in range(6):
            start = tuple(rng.choice(prob.n_variables, prob.n_constraints, replace=False))
            started = LpProblem(prob.objective, prob.rows, prob.relations, prob.rhs, start)
            del phase_one[:]
            res = solve_lp(started)
            assert check_feasible(started) == (plain.status is not LpStatus.INFEASIBLE)
            B = prob.rows[:, list(start)]
            if np.linalg.matrix_rank(B) < prob.n_constraints:
                kinds["singular"] += 1
                assert len(phase_one) == 2
            elif np.all(np.linalg.solve(B, prob.rhs) >= -lp.DEFAULT_TOLERANCES.eps_feas):
                kinds["taken"] += 1
                assert phase_one == []
            else:
                kinds["infeasible"] += 1
                assert len(phase_one) == 2
            assert res.status is plain.status
            if plain.status is LpStatus.OPTIMAL:
                assert res.value == pytest.approx(plain.value, abs=1e-9)
    assert min(kinds.values()) >= 5, kinds
