import tracemalloc

import numpy as np
import pytest

import effectcompat.lp as lp
from effectcompat.lp import (
    EQ,
    LE,
    LpInputError,
    LpProblem,
    SolverFailure,
    check_feasible,
    solve_lp,
)


def test_single_active_bound_row():
    # minimize x subject to x >= 1, posed as -x <= -1
    prob = LpProblem([1.0], [[-1.0]], [-1.0])
    res = solve_lp(prob)
    assert res.value == pytest.approx(1.0, abs=1e-9)
    assert res.point[0] == pytest.approx(1.0, abs=1e-9)


def test_unit_simplex_vertex():
    # minimize -x - y subject to x + y <= 1, x >= 0, y >= 0
    prob = LpProblem([-1.0, -1.0], [[1.0, 1.0]], [1.0])
    res = solve_lp(prob)
    assert res.value == pytest.approx(-1.0, abs=1e-9)


def test_contradictory_rows_infeasible():
    # minimize x subject to x <= 0 and x >= 1, posed as -x <= -1
    prob = LpProblem([1.0], [[1.0], [-1.0]], [0.0, -1.0])
    with pytest.raises(SolverFailure, match="infeasible: phase one leaves residual 1.000e"):
        solve_lp(prob)


def test_unbounded_free_variable():
    # minimize -y over y >= 0, with no row to stop it
    prob = LpProblem([-1.0], np.zeros((0, 1)), [])
    with pytest.raises(SolverFailure, match="unbounded: no row limits entering column 0"):
        solve_lp(prob)


def test_duplicate_rows_are_harmless():
    res = solve_lp(LpProblem([-1.0, 0.0], [[1.0, 1.0]] * 4 + [[-1.0, 1.0]],
                             [1.0, 1.0, 1.0, 1.0, 0.0]))
    assert res.value == pytest.approx(-1.0, abs=1e-9)
    # Repeated equalities leave every basis singular; the revised method has
    # no phase one to drop them, so it refuses the start before any pivot.
    with pytest.raises(LpInputError, match="singular"):
        solve_lp(LpProblem([-1.0, 0.0, 0.0], [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [2.0, 2.0, 1.0]],
                           [1.0, 1.0, 2.0], (0, 1, 2)))


def test_row_permutation_preserves_value():
    rng = np.random.default_rng(7)
    rows = [[2.0, 1.0], [1.0, 3.0], [-1.0, 0.0], [0.0, -1.0], [-1.0, -1.0]]
    rhs = [8.0, 9.0, 0.0, 0.0, -1.0]
    base = solve_lp(LpProblem([-3.0, -5.0], rows, rhs))
    for _ in range(10):
        perm = rng.permutation(len(rows))
        shuffled = LpProblem([-3.0, -5.0], [rows[i] for i in perm], [rhs[i] for i in perm])
        res = solve_lp(shuffled)
        assert res.value == pytest.approx(base.value, abs=1e-9)


def test_value_matches_objective_at_point():
    prob = LpProblem(
        [1.0, -2.0, 0.5],
        [[1.0, 1.0, 1.0], [-1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        [5.0, 2.0, 3.0, 2.0],
    )
    res = solve_lp(prob)
    assert res.value == pytest.approx(float(prob.objective @ res.point), abs=1e-9)


def test_deterministic_resolve():
    prob = LpProblem([-1.0, -1.0], [[1.0, 2.0], [3.0, 1.0]], [4.0, 6.0])
    a = solve_lp(prob)
    b = solve_lp(prob)
    assert a.value == b.value
    assert np.array_equal(a.point, b.point)
    assert a.iterations == b.iterations


def test_iteration_cap_raises_solver_failure(monkeypatch):
    monkeypatch.setattr(lp, "ITERATION_CAP_FACTOR", 0)
    prob = LpProblem([-1.0, -1.0], [[1.0, 2.0], [3.0, 1.0]], [4.0, 6.0])
    with pytest.raises(SolverFailure):
        solve_lp(prob)


def test_check_feasible_interval():
    prob = LpProblem([0.0], [[-1.0], [1.0]], [-1.0, 2.0])
    assert check_feasible(prob) is True


def test_check_feasible_empty_interval():
    prob = LpProblem([0.0], [[-1.0], [1.0]], [-1.0, 0.0])
    assert check_feasible(prob) is False


# Reference: the full-tableau pivot with the pivot column reset to a unit
# vector afterwards.  Every entry gets the same floating-point operation in
# _pivot's elimination step (_eliminate), where that reset is a no-op, so
# solve_lp must return ==-equal results.
def _reference_pivot(T, basis, row, col):
    T[row] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= np.outer(factors, T[row])
    T[:, col] = 0.0
    T[row, col] = 1.0
    basis[row] = col


def _small_problems():
    return [
        LpProblem([1.0], [[-1.0]], [-1.0]),
        # a free x >= 1 as x = y0 - y1: phase one through a negated row
        LpProblem([1.0, -1.0], [[-1.0, 1.0]], [-1.0]),
        LpProblem([-1.0, -1.0], [[1.0, 1.0]], [1.0]),
        LpProblem([1.0], [[1.0], [-1.0]], [0.0, -1.0]),
        LpProblem([-1.0], np.zeros((0, 1)), []),
        LpProblem([-1.0], [[1.0]], [5.0]),
        # x + 2y = 3 with 0 <= x <= 10, -1 <= y <= 1, shifted to y + 1 >= 0,
        # the two bounds as equalities with slack columns s1, s2, started at
        # x = 5, y + 1 = 0
        LpProblem([1.0, 1.0, 0.0, 0.0],
                  [[1.0, 2.0, 0.0, 0.0], [1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]],
                  [5.0, 10.0, 2.0], (0, 2, 3)),
        LpProblem([-1.0, 0.0], [[1.0, 1.0]] * 4 + [[-1.0, 1.0]],
                  [1.0, 1.0, 1.0, 1.0, 0.0]),
        LpProblem([-3.0, -5.0], [[2.0, 1.0], [1.0, 3.0], [-1.0, 0.0], [0.0, -1.0], [-1.0, -1.0]],
                  [8.0, 9.0, 0.0, 0.0, -1.0]),
        LpProblem([1.0, -2.0, 0.5],
                  [[1.0, 1.0, 1.0], [-1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
                  [5.0, 2.0, 3.0, 2.0]),
        LpProblem([0.0], [[-1.0], [1.0]], [-1.0, 0.0]),
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


def _solve_all(problems):
    out = []
    for prob in problems:
        try:
            out.append((solve_lp(prob), check_feasible(prob)))
        except SolverFailure as exc:
            out.append((str(exc), None))
    return out


def test_column_wise_pivot_matches_the_full_outer_product(monkeypatch):
    problems = _small_problems() + _lambda_problems()
    actual = _solve_all(problems)
    monkeypatch.setattr(lp, "_pivot", _reference_pivot)
    expected = _solve_all(problems)
    for i, ((res, feas), (ref, ref_feas)) in enumerate(zip(actual, expected)):
        if isinstance(ref, str):
            assert res == ref, i
            continue
        assert feas == ref_feas, i
        assert res.iterations == ref.iterations, i
        assert res.value == ref.value, i
        assert np.array_equal(res.point, ref.point), i


def test_negative_point_fails_verification():
    prob = LpProblem([0.0, 0.0], [[1.0, 1.0]], [1.0])
    lp._verify_solution(prob, np.array([0.5, -1e-10]), 1e-9)
    with pytest.raises(SolverFailure, match="lower bound on variable 1"):
        lp._verify_solution(prob, np.array([0.5, -1e-8]), 1e-9)


def _reference_verify(problem, y, eps):
    """The per-row loop that _verify_solution's numpy pass replaced."""
    lhs = problem.rows @ y
    for i, rel in enumerate(problem.relations):
        r = lhs[i] - problem.rhs[i]
        bad = (rel == LE and r > eps) or (rel == EQ and abs(r) > eps)
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
    for prob in _small_problems() + _lambda_problems() + _equality_problems():
        try:
            res = solve_lp(prob)
        except SolverFailure:  # infeasible or unbounded
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
    dense = [problem for problem in solved if problem.start is None]
    assert len(solved) == 4 and len(dense) == 2  # the lambda primal, twice
    assert shapes == [tableau_shape(problem) for problem in dense]


def test_cross_checked_hypercube_7_verdict_is_small_and_agrees_with_highs(tmp_path, capsys):
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
    """Seeded all-equality LPs, each started at a planted feasible basis:
    feasible and bounded, possibly unbounded, and with each column repeated,
    so that many bases are singular."""
    rng = np.random.default_rng(41)
    problems = []
    for m, n in ((1, 3), (2, 5), (3, 8), (5, 12), (8, 40)):
        for case in ("bounded", "bounded", "bounded", "signed cost", "signed cost", "repeated"):
            rows = rng.normal(size=(m, n))
            distinct = np.arange(n)
            if case == "repeated":
                rows[:, 1::2] = rows[:, : n // 2 * 2 : 2]
                distinct = distinct[0::2]
            start = tuple(int(j) for j in rng.choice(distinct, m, replace=False))
            y0 = np.zeros(n)
            y0[list(start)] = rng.uniform(0.1, 1.0, size=m)
            # a nonnegative cost keeps the problem bounded
            cost = rng.normal(size=n) if case == "signed cost" else rng.uniform(size=n)
            problems.append(LpProblem(cost, rows, rows @ y0, start))
    return problems


def _outcome(prob):
    """solve_lp's optimum, or the SolverFailure it raised."""
    try:
        return solve_lp(prob)
    except SolverFailure as exc:
        return exc


def _force_rule(monkeypatch, bland):
    """Run the revised method by one pricing rule only, on the retry too."""
    revised = lp._revised_simplex
    monkeypatch.setattr(lp, "_revised_simplex", lambda *args: revised(*args[:-1], bland))


@pytest.mark.parametrize("bland", [False, True], ids=["dantzig", "bland"])
def test_revised_method_matches_the_dense_tableau(monkeypatch, bland):
    _force_rule(monkeypatch, bland)
    unbounded = 0
    for prob in _equality_problems():
        res = _outcome(prob)
        # each equality as the <= pair (row, -row) takes the dense tableau
        signs = np.tile([1.0, -1.0], prob.n_constraints)
        dense = _outcome(LpProblem(prob.objective, np.repeat(prob.rows, 2, axis=0) * signs[:, None],
                                   np.repeat(prob.rhs, 2) * signs))
        assert check_feasible(prob) is True
        if isinstance(res, SolverFailure):
            assert "unbounded" in str(res) and "unbounded" in str(dense)
            unbounded += 1
            continue
        assert res.value == pytest.approx(dense.value, abs=1e-9)
        pi = res.multipliers
        assert np.all(prob.objective - prob.rows.T @ pi >= -1e-9)
        assert prob.rhs @ pi == pytest.approx(res.value, abs=1e-9)
    assert 0 < unbounded < len(_equality_problems())


def test_the_start_names_the_form():
    # A start makes every row an equality, no start every row a <= row.
    rows = [[1.0, 1.0, 0.0], [1.0, -1.0, 1.0]]
    assert LpProblem([1.0, 1.0, 1.0], rows, [1.0, 0.0], (0, 2)).relations == (EQ, EQ)
    assert LpProblem([1.0, 1.0, 1.0], rows, [1.0, 0.0]).relations == (LE, LE)


def test_start_basis_gives_the_same_status_and_value():
    # Seeded starts on the equality problems: a nonsingular, feasible start
    # gives the value of the planted one, or raises as it does on an
    # unbounded problem; solve_lp and check_feasible refuse a singular or
    # infeasible start, naming why.
    rng = np.random.default_rng(43)
    kinds = {"taken": 0, "singular": 0, "infeasible": 0}
    for prob in _equality_problems():
        planted = _outcome(prob)
        for _ in range(6):
            start = tuple(rng.choice(prob.n_variables, prob.n_constraints, replace=False))
            started = LpProblem(prob.objective, prob.rows, prob.rhs, start)
            B = prob.rows[:, list(start)]
            if np.linalg.matrix_rank(B) < prob.n_constraints:
                kind = "singular"
            elif np.all(np.linalg.solve(B, prob.rhs) >= -lp.DEFAULT_TOLERANCES.eps_feas):
                kind = "taken"
            else:
                kind = "infeasible"
            kinds[kind] += 1
            if kind != "taken":
                for method in (solve_lp, check_feasible):
                    with pytest.raises(LpInputError, match=kind):
                        method(started)
                continue
            assert check_feasible(started) is True
            res = _outcome(started)
            if isinstance(planted, SolverFailure):
                assert "unbounded" in str(res) and "unbounded" in str(planted)
            else:
                assert res.value == pytest.approx(planted.value, abs=1e-9)
    assert min(kinds.values()) >= 5, kinds


def _ratios(x, column):
    """max(x_i, 0) / d_i over d_i > _PIVOT_EPS, inf elsewhere, and the tie
    slack of the least of them."""
    ratios = np.divide(np.maximum(x, 0.0), column, out=np.full(x.size, np.inf),
                       where=column > lp._PIVOT_EPS)
    return ratios, 1e-12 * max(1.0, ratios.min())


def _reference_ratio_test(x, column, basis, bland):
    """The ratio test as numpy expressions over the whole column: the leaving
    row, or None when unbounded."""
    ratios, slack = _ratios(x, column)
    if ratios.min() == np.inf:
        return None
    tied = ratios <= ratios.min() + slack
    if bland:
        return int(min(np.flatnonzero(tied), key=lambda i: basis[i]))
    return int(np.argmax(np.where(tied, column, -np.inf)))


def _ratio_test_cases():
    """Seeded (x, column, basis) triples.  Entries come from small sets, so
    ratios tie exactly and tied rows share pivots; the sets hold entries at
    +-_PIVOT_EPS, -0.0 and negative round-off in x.  Some rows are moved to
    within or just past the tie slack of another row's ratio."""
    rng = np.random.default_rng(47)
    pivots = np.array([0.25, 0.5, 1.0, 1.0, 2.0, 1e-3, lp._PIVOT_EPS, -lp._PIVOT_EPS,
                       0.0, -0.0, -1.0])
    points = np.array([0.0, -0.0, -1e-15, -1e-13, 1e-12, 0.25, 0.5, 1.0, 2.0])
    for trial in range(600):
        m = int(rng.integers(1, 10))
        column = rng.choice(pivots, m)
        x = rng.choice(points, m)
        if trial % 3 == 0:  # continuous entries among the discrete ones
            mixed = rng.uniform(size=m) < 0.5
            column[mixed] = rng.uniform(-1.0, 2.0, mixed.sum())
            x[mixed] = rng.uniform(0.0, 2.0, mixed.sum())
        eligible = np.flatnonzero(column > lp._PIVOT_EPS)
        if trial % 4 == 1 and eligible.size >= 2:
            i, j = rng.choice(eligible, 2, replace=False)
            ratio = max(x[i], 0.0) / column[i]
            x[j] = column[j] * ratio * (1.0 + rng.choice([0.5e-12, 2e-12]))
            x[j] += rng.choice([0.0, 1e-12])
        basis = [int(v) for v in rng.permutation(3 * m)[:m]]
        yield x, column, basis


@pytest.mark.parametrize("bland", [False, True], ids=["dantzig", "bland"])
def test_ratio_test_matches_the_numpy_expressions(bland):
    seen = dict.fromkeys(["unbounded", "degenerate", "moving", "tie", "largest pivot not first",
                          "equal pivots tied", "at the pivot floor", "negative x", "-0.0"], 0)
    for x, column, basis in _ratio_test_cases():
        expected = _reference_ratio_test(x, column, basis, bland)
        assert lp._ratio_test(x.tolist(), column.tolist(), basis, bland) == expected, \
            (x.tolist(), column.tolist(), basis)
        seen["at the pivot floor"] += bool(np.any(np.abs(column) == lp._PIVOT_EPS))
        seen["negative x"] += bool(np.any((x < 0.0) & (column > lp._PIVOT_EPS)))
        seen["-0.0"] += bool(np.any(np.signbit(column) & (column == 0.0)))
        if expected is None:
            seen["unbounded"] += 1
            continue
        ratios, slack = _ratios(x, column)
        seen["degenerate" if ratios.min() <= slack else "moving"] += 1
        tied = np.flatnonzero(ratios <= ratios.min() + slack)
        if tied.size > 1:
            seen["tie"] += 1
            seen["largest pivot not first"] += bool(column[tied].argmax() > 0)
            seen["equal pivots tied"] += bool(np.unique(column[tied]).size < tied.size)
    assert min(seen.values()) >= 10, seen


def test_equality_form_without_a_usable_start_is_input_error():
    # There is no phase one: a start basis that is singular (an all-zero row
    # has no other) is refused.
    zero_row = LpProblem([-0.3, 0.0, 0.3], [[0.0, -0.0, 0.0]], [0.0], (1,))
    for method in (solve_lp, check_feasible):
        with pytest.raises(LpInputError, match=r"start basis \(1,\) is singular"):
            method(zero_row)


@pytest.mark.parametrize("rows, rhs, start, message", [
    ([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0]], [1.0, 1.0], (0, 2),
     r"start basis \(0, 2\) is singular"),
    ([[1.0, 0.0, 0.0], [1.0, 1e-13, 0.0]], [1.0, 1.0], (0, 1),
     r"start basis \(0, 1\) is singular to working precision \(condition number "
     r"\S+, limit 1e\+11\)"),
    ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [-1.0, 1.0], (0, 1),
     r"start basis \(0, 1\) is infeasible: its point has -1 on column 0, below -eps_feas"),
], ids=["singular", "ill-conditioned", "infeasible"])
def test_a_refused_numpy_start_is_named_in_python_ints(rows, rhs, start, message):
    # numpy 2 would print the columns as np.int64(0)
    numpy_start = tuple(np.int64(j) for j in start)
    with pytest.raises(LpInputError, match=f"^{message}$"):
        solve_lp(LpProblem([0.0, 0.0, 0.0], rows, rhs, numpy_start))


@pytest.mark.parametrize("bland, pivots", [(False, 1), (True, 2)], ids=["dantzig", "bland"])
def test_bland_enters_the_smallest_improving_index(monkeypatch, bland, pivots):
    # From the slack basis, Dantzig enters y1 (reduced cost -10) and stops;
    # Bland enters y0 first and needs a second pivot for y1.
    _force_rule(monkeypatch, bland)
    res = solve_lp(LpProblem([-1.0, -10.0, 0.0], [[1.0, 1.0, 1.0]], [1.0], (2,)))
    assert (res.value, res.iterations) == (-10.0, pivots)


def test_a_dantzig_cycle_ends_in_the_retry_by_blands_rule():
    # Kuhn's cycling example in equality form, a slack on each row, from the
    # slack basis: Dantzig pricing, largest pivot on ties, cycles through
    # degenerate pivots until the budget runs out, which is why solve_lp
    # solves once more by Bland's rule.  That retry reaches the optimum -2
    # in 2 pivots, and iterations counts the pivots of both runs.
    rows = np.hstack([[[-2.0, -9.0, 1.0, 9.0], [1 / 3, 1.0, -1 / 3, -2.0],
                       [2.0, 3.0, -1.0, -12.0]], np.eye(3)])
    problem = LpProblem([-2.0, -3.0, 1.0, 12.0, 0.0, 0.0, 0.0], rows, [0.0, 0.0, 2.0], (4, 5, 6))
    basis, start = lp._start_basis(problem, lp.DEFAULT_TOLERANCES)
    budget = lp._Budget(problem)
    with pytest.raises(SolverFailure, match="pivot budget exhausted"):
        lp._revised_simplex(problem.rows, problem.rhs, problem.objective, basis, budget, start,
                            bland=False)
    res = solve_lp(problem)
    assert (res.value, res.iterations) == (-2.0, budget.cap + 2)


def test_exit_is_priced_on_fresh_multipliers(monkeypatch):
    # Scale the inverse block of the revised method's [B^-1 | x] by 1 + 1e-3
    # after every eta update, so that its pricing drifts.  An exit on that
    # pricing alone returned a witness that failed its check on 3 of these
    # 40 pairs; priced again on a fresh solve, each pair resumes pivoting
    # and ends at the undisturbed lambda0.
    from effectcompat import compat, models

    space = models.hypercube(5)
    rng = np.random.default_rng(3)
    pairs = [[compat.random_effect(space, rng, span_range=(1.0, 1.0)) for _ in "ef"]
             for _ in range(40)]
    clean = [compat.compute_lambda0(space, e, f).lambda0 for e, f in pairs]
    eliminate = lp._eliminate

    def drifting(T, column, row):
        eliminate(T, column, row)
        T[:, :-1] *= 1.0 + 1e-3

    monkeypatch.setattr(lp, "_eliminate", drifting)
    for (e, f), expected in zip(pairs, clean):
        assert abs(compat.compute_lambda0(space, e, f).lambda0 - expected) <= 1e-12
