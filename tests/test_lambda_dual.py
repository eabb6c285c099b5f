"""The witness LPs (lambda0, the depolarizing threshold, the least slack of
the eq3 system) solved as (d+2)-row duals by the revised simplex method,
each from the start basis of compat._dual_start."""

import dataclasses

import numpy as np
import pytest

import effectcompat.compat as compat
import effectcompat.lp as lp
from effectcompat.core import make_state_space
from effectcompat.lp import EQ, LE, LpProblem, SolverFailure, check_feasible, solve_lp
from effectcompat.models import gbit_square, hypercube, regular_polygon, simplex
from effectcompat.tolerances import DEFAULT_TOLERANCES

EPS_FEAS = DEFAULT_TOLERANCES.eps_feas


def _pairs(space, seed, n):
    """n seeded pairs from default_rng(seed), spans alternating the default and (1, 1)."""
    rng = np.random.default_rng(seed)
    pairs = []
    for i in range(n):
        span = (0.2, 1.0) if i % 2 == 0 else (1.0, 1.0)
        pairs.append((compat.random_effect(space, rng, span_range=span),
                      compat.random_effect(space, rng, span_range=span)))
    return pairs


def _witness_violation(space, e, f, report):
    """Largest breach of 0 <= g <= min(e, f) and e + f - g <= lambda0 on the vertices."""
    m = np.hstack([np.ones((space.n_vertices, 1)), space.vertices])
    ev, fv, gv = m @ e.coefficients, m @ f.coefficients, m @ report.witness.coefficients
    return float(max(np.max(-gv), np.max(gv - np.minimum(ev, fv)),
                     np.max(ev + fv - gv - report.lambda0)))


@pytest.mark.parametrize("k, index, highs", [
    (256, 2, 0.9353718331467867),   # dense tableau: constraint residual 5.97e-5
    (1024, 0, 0.9993730286467211),  # dense tableau: constraint residual 1.29e-6
])
def test_seeded_pair_that_drifted_on_the_dense_tableau_solves(k, index, highs):
    space = regular_polygon(k)
    e, f = _pairs(space, 5, index + 1)[index]
    report = compat.compute_lambda0(space, e, f)
    # highs: scipy.optimize.linprog(method="highs") on the same LP
    assert abs(report.lambda0 - highs) <= 1e-9
    assert _witness_violation(space, e, f, report) <= EPS_FEAS


def test_agrees_with_highs_from_8_to_1024_vertices():
    pytest.importorskip("scipy")
    from perfbench import reference

    spaces = [regular_polygon(2**j) for j in range(3, 11)] + [hypercube(d) for d in range(3, 11)]
    for space in spaces:
        m = reference.vertex_matrix(space.vertices)
        for e, f in _pairs(space, 17, 4):
            report = compat.compute_lambda0(space, e, f)
            expected = reference.lambda0(m, m @ e.coefficients, m @ f.coefficients, 1e-10)
            assert abs(report.lambda0 - expected) <= 1e-9, space.name
            assert _witness_violation(space, e, f, report) <= EPS_FEAS, space.name


# The witness duals as they were posed per pair before their fixed parts
# moved to StateSpace: the rows stacked, the start found from the pair's own
# column and the problem handed to solve_lp.  Returns (s, g, pivots).
_START_PAIRS = [(1, 3), (2, 3), (0, 1), (0, 2)]


def _stacked_dual(space, rhs, column, cost):
    k = space.n_vertices
    rows = np.vstack([space.dual_rows, column])
    dual_rhs = np.zeros(rows.shape[0])
    dual_rhs[-1] = -cost
    sums = np.array([[float(block in pair) for block in range(4)] for pair in _START_PAIRS])
    denom = sums @ column.reshape(4, k)
    value = np.divide(sums @ rhs.reshape(4, k), -cost * denom,
                      out=np.full(denom.shape, np.inf), where=cost * denom < 0.0)
    pair, v = divmod(int(np.argmin(value)), k)
    chosen = list(space.frame)
    chosen[space.frame_swap[v]] = v
    x, y = (block * k for block in _START_PAIRS[pair])
    start = tuple(x + u for u in chosen) + (y + v,)
    result = solve_lp(LpProblem(rhs, rows, (EQ,) * rows.shape[0], dual_rhs, start))
    return -cost * result.value, result.multipliers[:-1], result.iterations


def test_bit_identical_to_the_dual_stacked_per_pair(monkeypatch):
    posed = _spy_problems(monkeypatch)
    incompatible = 0
    for space in (regular_polygon(5), hypercube(3), regular_polygon(16), hypercube(5),
                  regular_polygon(128), hypercube(7), regular_polygon(1024), hypercube(10)):
        k = space.n_vertices
        for e, f in _pairs(space, 61, 6):
            # on the values as compat validates them: any below 0 clamped to 0
            ev, fv = (np.maximum(x.vertex_values(space), 0.0) for x in (e, f))
            rhs = np.concatenate([np.zeros(k), ev, fv, 0.0 - (ev + fv)])
            s, g, pivots = _stacked_dual(space, rhs, np.repeat([0.0, 0.0, 0.0, -1.0], k), 1.0)
            del posed[:]
            report = compat.compute_lambda0(space, e, f)
            # the per-space rows and right-hand side, held without a copy
            assert len(posed) == 1 and posed[0].rows is space.lambda_dual.rows
            assert posed[0].rhs is space.lambda_dual.rhs
            assert report.lambda0.hex() == max(0.0, s).hex(), space.name
            assert list(map(float.hex, report.witness.coefficients.tolist())) == \
                list(map(float.hex, g.tolist())), space.name
            assert report.lp_iterations == pivots, space.name
            t = compat.min_depolarizing_noise(space, e, f)
            if report.compatible:
                assert t == 1.0
                continue
            incompatible += 1
            ev, fv = ev - 0.5, fv - 0.5
            rhs = np.repeat([0.0, 0.5, 0.5, DEFAULT_TOLERANCES.eps_compat
                             - compat._THRESHOLD_MARGIN], k)
            column = np.concatenate([np.zeros(k), -ev, -fv, ev + fv])
            assert t.hex() == _stacked_dual(space, rhs, column, -1.0)[0].hex(), space.name
    assert incompatible >= 10


def _spy_linalg(monkeypatch):
    """Record each call of numpy.linalg.solve and numpy.linalg.inv by name."""
    calls = []
    for name in ("solve", "inv"):
        def spy(*args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, spy)
    return calls


@pytest.mark.parametrize("make", [lambda: regular_polygon(128), lambda: hypercube(7)],
                         ids=["polygon-128", "hypercube-7"])
def test_pivots_update_the_basis_inverse(monkeypatch, make):
    # Below the refactor interval a lambda0 solve inverts its start basis once
    # and solves twice for the readout, however many pivots it takes.
    space = make()
    pairs = [(e, f, compat.compute_lambda0(space, e, f).lp_iterations)
             for e, f in _pairs(space, 7, 12)]
    pairs = [pair for pair in pairs if pair[2] < lp._REFACTOR_INTERVAL]
    assert len(pairs) >= 10 and sum(pivots >= 8 for *_, pivots in pairs) >= 5
    calls = _spy_linalg(monkeypatch)
    for e, f, pivots in pairs:
        del calls[:]
        assert compat.compute_lambda0(space, e, f).lp_iterations == pivots
        assert sorted(calls) == ["inv", "solve", "solve"], pivots


def test_solves_past_the_refactor_interval_agree_with_highs():
    pytest.importorskip("scipy")
    from perfbench import reference

    past = 0
    for space in (hypercube(10), hypercube(12)):
        m = reference.vertex_matrix(space.vertices)
        for e, f in _pairs(space, 5, 4):
            report = compat.compute_lambda0(space, e, f)
            past += report.lp_iterations > lp._REFACTOR_INTERVAL
            expected = reference.lambda0(m, m @ e.coefficients, m @ f.coefficients, 1e-10)
            assert abs(report.lambda0 - expected) <= 1e-12, space.name
            assert _witness_violation(space, e, f, report) <= EPS_FEAS, space.name
    assert past >= 3


def test_agrees_with_the_dense_primal_from_8_to_64_vertices():
    assert compat._DUAL_MIN_VERTICES <= 8
    for space in (regular_polygon(8), hypercube(3), regular_polygon(16), hypercube(4),
                  regular_polygon(32), hypercube(5), regular_polygon(64), hypercube(6)):
        for e, f in _pairs(space, 29, 6):
            ev, fv = e.vertex_values(space), f.vertex_values(space)
            dense = solve_lp(compat._lambda_problem(space, ev, fv))
            report = compat.compute_lambda0(space, e, f)
            assert abs(report.lambda0 - max(0.0, dense.value)) <= 1e-12, space.name


def test_perturbed_multipliers_are_caught(monkeypatch):
    space = regular_polygon(16)
    e, f = _pairs(space, 3, 1)[0]
    solve = compat.solve_lp

    def perturbed(problem, tol=None):
        result = solve(problem, tol)
        g = result.multipliers.copy()
        g[0] -= 1e-6  # lowers g everywhere: breaks the binding e + f - g <= lambda0 row
        return dataclasses.replace(result, multipliers=g)

    compat.compute_lambda0(space, e, f)
    monkeypatch.setattr(compat, "solve_lp", perturbed)
    with pytest.raises(SolverFailure, match="witness at lambda0"):
        compat.compute_lambda0(space, e, f)


@pytest.mark.parametrize("make", [lambda: regular_polygon(8), lambda: hypercube(3), gbit_square],
                         ids=["polygon-8", "hypercube-3", "gbit"])
def test_only_the_small_lambda_primal_builds_a_tableau(monkeypatch, make):
    space = make()
    pairs = [pair for pair in _pairs(space, 11, 8)
             if compat.compute_lambda0(space, *pair).lambda0 > 1.01]
    assert len(pairs) >= 2
    built = []
    build = lp._build_tableau
    monkeypatch.setattr(lp, "_build_tableau", lambda *a: built.append(a[0]) or build(*a))
    for e, f in pairs:
        report = compat.compute_lambda0(space, e, f)
        compat.min_depolarizing_noise(space, e, f)
        compat.min_scaling_noise(space, e, f, verify=True)
        compat.is_compatible(space, e, f, cross_check=True)
        # scaled to lambda0 = 1 + 2e-9, which takes the refresh at lambda = 1
        c = (1.0 + 2e-9) / report.lambda0
        compat.joint_observable(space, compat.scale_effect(e, c), compat.scale_effect(f, c))
    if space.n_vertices >= compat._DUAL_MIN_VERTICES:
        assert built == []
        return
    zero = np.zeros(space.n_vertices)
    lambda_rows = compat._lambda_problem(space, zero, zero).rows
    assert lambda_rows.shape[0] <= 16 and len(built) >= len(pairs)
    for rows in built:
        assert np.array_equal(rows, lambda_rows)


# Reference formulations that share no solver path with the duals: the eq3
# system as LE rows for the dense phase one, and the depolarizing LP as the
# primal over (g, t) on the dense tableau, each free variable split.
def _eq3_problem(space, e, f, lam):
    ev, fv, M = e.vertex_values(space), f.vertex_values(space), space.vertex_matrix()
    rhs = np.concatenate([np.zeros(space.n_vertices), ev, fv, lam - (ev + fv)])
    A = np.vstack([-M, M, M, -M])
    return LpProblem(np.zeros(2 * A.shape[1]), compat._split(A), (LE,) * A.shape[0], rhs)


def _depolarizing_threshold(space, e, f, tol=compat.DEFAULT_TOLERANCES):
    ev, fv = e.vertex_values(space) - 0.5, f.vertex_values(space) - 0.5
    rhs = np.repeat([0.0, 0.5, 0.5, tol.eps_compat - compat._THRESHOLD_MARGIN],
                    space.n_vertices)
    column = np.concatenate([np.zeros(space.n_vertices), -ev, -fv, ev + fv])
    M = space.vertex_matrix()
    A = np.hstack([np.vstack([-M, M, M, -M]), column[:, None]])
    objective = np.append(np.zeros(M.shape[1]), -1.0)  # maximize t
    result = solve_lp(LpProblem(compat._split(objective), compat._split(A),
                                (LE,) * A.shape[0], rhs), tol)
    return compat._free_point(result.point)[-1]


def test_duals_agree_with_the_primal_formulations():
    incompatible = 0
    for space in (gbit_square(), regular_polygon(8), hypercube(3), regular_polygon(16),
                  hypercube(4)):
        for e, f in _pairs(space, 23, 12):
            lambda0 = compat.compute_lambda0(space, e, f).lambda0
            for rel in (-1e-3, -1e-6, 1e-6, 1e-3):
                lam = lambda0 * (1.0 + rel)
                expected = rel > 0.0
                assert compat.eq3_feasible(space, e, f, lam=lam) is expected, space.name
                assert check_feasible(_eq3_problem(space, e, f, lam)) is expected, space.name
            t = compat.min_depolarizing_noise(space, e, f)
            if t < 1.0:
                incompatible += 1
                assert abs(t - _depolarizing_threshold(space, e, f)) <= 1e-12, space.name
    assert incompatible >= 20


def _spy_starts(monkeypatch):
    """Record every equality-form problem the solver is handed, and every one
    whose start basis it takes; with no phase one, the two lists agree
    unless a start is refused."""
    posed, taken = [], []
    solve, start_basis = lp.solve_lp, lp._start_basis

    def spy_solve(problem, tol=None):
        if lp._equality_form(problem):
            posed.append(problem)
        return solve(problem, tol)

    def spy_start(problem, tol):
        started = start_basis(problem, tol)
        taken.append(problem)
        return started

    monkeypatch.setattr(compat, "solve_lp", spy_solve)
    monkeypatch.setattr(lp, "_start_basis", spy_start)
    return posed, taken


@pytest.mark.parametrize("make", [lambda: regular_polygon(8), lambda: hypercube(3)],
                         ids=["polygon-8", "hypercube-3"])
def test_witness_duals_start_without_phase_one(monkeypatch, make):
    space = make()
    pairs = _pairs(space, 31, 12)
    posed, taken = _spy_starts(monkeypatch)
    incompatible = 0
    for e, f in pairs:
        compat.compute_lambda0(space, e, f)
        incompatible += compat.min_depolarizing_noise(space, e, f) < 1.0
        compat.eq3_feasible(space, e, f)
        compat.eq3_feasible(space, e, f, lam=0.9)
    assert incompatible >= 3
    assert len(posed) >= 3 * len(pairs) and taken == posed


def _tilted(vertices, d, seed):
    """vertices rotated into R^d by the Q of default_rng(seed), moved off the origin."""
    rotation = np.linalg.qr(np.random.default_rng(seed).normal(size=(d, d)))[0]
    padded = np.hstack([vertices, np.zeros((len(vertices), d - vertices.shape[1]))])
    return padded @ rotation.T + 1.5, rotation


def test_every_space_takes_its_start_basis(monkeypatch):
    # polygon-8 at z = 0 in 3-D, and tilted and moved in R^4, spans no d-dim
    # frame; its duals are built on the hull's coordinates and start from
    # their basis.  lambda0, the threshold and the eq3 verdict are those of
    # the planar polygon-8, and the lifted witness holds on the ambient vertices.
    planar = regular_polygon(8)
    tilted, rotation = _tilted(planar.vertices, 4, 19)
    for flat in (make_state_space(np.hstack([planar.vertices, np.zeros((8, 1))])),
                 make_state_space(tilted)):
        assert flat.hull_basis.shape == (flat.dimension, 2) and len(flat.frame) == 3
        lift = np.eye(flat.dimension + 1)[:, :3]
        if flat.dimension == 4:  # g(x) = h(R^T (x - 1.5)) for h on the plane
            lift = np.zeros((5, 3))
            lift[0, 0] = 1.0
            lift[1:, 1:] = rotation[:, :2]
            lift[0, 1:] = -1.5 * rotation[:, :2].sum(axis=0)
        posed, taken = _spy_starts(monkeypatch)
        for e, f in _pairs(planar, 37, 8):
            e3, f3 = (compat.Effect(lift @ g.coefficients) for g in (e, f))
            report = compat.compute_lambda0(flat, e3, f3)
            assert report.lambda0 == pytest.approx(
                compat.compute_lambda0(planar, e, f).lambda0, abs=1e-12)
            assert _witness_violation(flat, e3, f3, report) <= EPS_FEAS
            assert compat.min_depolarizing_noise(flat, e3, f3) == pytest.approx(
                compat.min_depolarizing_noise(planar, e, f), abs=1e-12)
            assert compat.eq3_feasible(flat, e3, f3) is compat.eq3_feasible(planar, e, f)
        assert len(posed) >= 16 and taken == posed


# A triangle in R^4 with coordinates near 1e3, once a late SolverFailure
# ("phase one reported unbounded") on its rank-deficient lambda LP.
_TRIANGLE_R4 = [
    [1457.6026842414908, 658.9097700963885, -195.81909958045, 41.998389997573256],
    [1716.847558301555, -10.457995862265761, 409.34404161844384, 375.0642334077642],
    [1090.844867399007, 766.4677680931732, 1711.698980347339, 481.858860572664],
]
_TRIANGLE_R4_E = [0.15326016101984707, 3.9716820395829494e-05, -0.00023504466886496497,
                  0.00013373131641396715, 2.3513569383720128e-05]
_TRIANGLE_R4_F = [-0.6631737970840245, 0.0009998741953125341, -0.00034266371317301223,
                  -3.257504679001649e-05, -0.00013866613357814517]


def test_triangle_in_r4_matches_the_simplex_closed_form():
    space = make_state_space(_TRIANGLE_R4)
    e, f = compat.Effect(_TRIANGLE_R4_E), compat.Effect(_TRIANGLE_R4_F)
    report = compat.compute_lambda0(space, e, f)
    # max_v max(e, f), the closed form on a simplex (the grid oracle stops at d = 3)
    expected = float(np.maximum(e.vertex_values(space), f.vertex_values(space)).max())
    assert abs(report.lambda0 - expected) <= 1e-12
    assert _witness_violation(space, e, f, report) <= EPS_FEAS
    assert compat.is_compatible(space, e, f, cross_check=True)


def _lower_dimensional_spaces(n):
    """The first n spaces of a seeded family that spans r < d dimensions:
    d in [2, 6), r in [1, d), k in [r+1, 9), scale 1e-3, 1 or 1e3, and an
    offset of 0, 1 or scale, from default_rng(11)."""
    rng = np.random.default_rng(11)
    for _ in range(n):
        d = int(rng.integers(2, 6))
        r = int(rng.integers(1, d))
        k = int(rng.integers(r + 1, 9))
        rotation = np.linalg.qr(rng.normal(size=(d, d)))[0]
        scale = float(rng.choice([1e-3, 1.0, 1e3]))
        offset = float(rng.choice([0.0, 1.0, scale]))
        vertices = rng.normal(size=(k, r)) @ rotation[:r] * scale + rng.normal(size=d) * offset
        yield make_state_space(vertices), rng


def test_seeded_lower_dimensional_spaces_agree_with_highs(monkeypatch):
    pytest.importorskip("scipy")
    from perfbench import reference

    posed, taken = _spy_starts(monkeypatch)
    pairs = 0
    for space, rng in _lower_dimensional_spaces(60):
        assert space.hull_basis is not None
        m = reference.vertex_matrix(space.vertices)
        for _ in range(4):
            e, f = compat.random_effect(space, rng), compat.random_effect(space, rng)
            report = compat.compute_lambda0(space, e, f)
            expected = reference.lambda0(m, m @ e.coefficients, m @ f.coefficients, 1e-10)
            assert abs(report.lambda0 - expected) <= 1e-11, space
            assert _witness_violation(space, e, f, report) <= EPS_FEAS, space
            pairs += 1
    assert pairs == 240 and taken == posed


@pytest.mark.parametrize("make", [lambda: regular_polygon(8), lambda: hypercube(3)],
                         ids=["polygon-8", "hypercube-3"])
def test_far_from_origin_spaces_solve(make):
    # Padded with two zero coordinates, rotated, scaled by 1e-4 and moved
    # off the origin: the effects' coefficients are about 1e4, so a vertex
    # value of 0 rounds to about -1e-12, which the validation accepts and
    # compat clamps to 0 before any witness LP.
    base = make().vertices
    vertices = np.hstack([base, np.zeros((len(base), 2))])
    d = vertices.shape[1]
    for seed in range(12):
        rng = np.random.default_rng(seed)
        rotation = np.linalg.qr(rng.normal(size=(d, d)))[0]
        space = make_state_space(vertices @ rotation.T * 1e-4 + rng.normal(size=d))
        for e, f in _pairs(space, seed, 50):
            report = compat.compute_lambda0(space, e, f)
            assert _witness_violation(space, e, f, report) <= EPS_FEAS, seed


def _clustered_cloud(seed):
    """Tight clusters just inside the unit sphere, from default_rng(seed):
    d in [3, 6) and 3 to 7 unit centres, each with 5 to 14 points spread by
    10**U(-8.5, -5), put back on the sphere and pulled in by |N| 10**U(-12, -8)."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(3, 6))
    centres = rng.normal(size=(int(rng.integers(3, 8)), d))
    centres /= np.linalg.norm(centres, axis=1, keepdims=True)
    points = []
    for c in centres:
        for _ in range(int(rng.integers(5, 15))):
            p = c + rng.normal(size=d) * 10 ** rng.uniform(-8.5, -5)
            p /= np.linalg.norm(p)
            points.append(p * (1 - abs(rng.normal()) * 10 ** rng.uniform(-12, -8)))
    return np.array(points)


# The clouds of seeds 0-299 whose load raised SolverFailure in the hull LP of
# the retired redundancy scan, and the (seed, pair index) of the lambda duals
# on them that still fail (ROADMAP item 10A): unbounded, a singular 7 x 7
# basis and the pivot budget.
_CLUSTERED_SEEDS = (2, 11, 12, 16, 22, 24, 25, 26, 34, 39, 53, 58, 88, 90, 111, 113, 116,
                    142, 149, 151, 162, 164, 168, 171, 177, 187, 214, 230, 233, 239, 241,
                    242, 245, 258, 261, 266, 270, 279, 291, 295)
_CLUSTERED_DUAL_FAILURES = [(242, 0), (242, 4), (261, 4)]


def _clustered_pairs(seed):
    space = make_state_space(_clustered_cloud(seed))
    rng = np.random.default_rng(1000 + seed)
    return space, [(compat.random_effect(space, rng), compat.random_effect(space, rng))
                   for _ in range(5)]


def test_clustered_clouds_load_without_an_lp(monkeypatch):
    posed = []
    monkeypatch.setattr(LpProblem, "__post_init__", lambda problem: posed.append(problem))
    for seed in range(300):
        make_state_space(_clustered_cloud(seed))
    assert posed == []


def test_clustered_clouds_agree_with_highs():
    pytest.importorskip("scipy")
    from perfbench import reference

    solved = 0
    for seed in _CLUSTERED_SEEDS:
        space, pairs = _clustered_pairs(seed)
        m = reference.vertex_matrix(space.vertices)
        for index, (e, f) in enumerate(pairs):
            if (seed, index) in _CLUSTERED_DUAL_FAILURES:
                continue
            report = compat.compute_lambda0(space, e, f)
            expected = reference.lambda0(m, m @ e.coefficients, m @ f.coefficients, 1e-10)
            assert abs(report.lambda0 - expected) <= 1e-12, (seed, index)
            assert _witness_violation(space, e, f, report) <= EPS_FEAS, (seed, index)
            solved += 1
    assert solved == 5 * len(_CLUSTERED_SEEDS) - len(_CLUSTERED_DUAL_FAILURES)


@pytest.mark.xfail(strict=True, raises=SolverFailure,
                   reason="ROADMAP item 10A: the lambda dual fails late on clustered clouds")
@pytest.mark.parametrize("seed, index", _CLUSTERED_DUAL_FAILURES,
                         ids=["242-0", "242-4", "261-4"])
def test_lambda_dual_on_a_clustered_cloud(seed, index):
    space, pairs = _clustered_pairs(seed)
    compat.compute_lambda0(space, *pairs[index])


def test_pivot_budget_of_the_hypercube_7_lambda_dual(monkeypatch):
    # The budget bounds how long a solve that cycles runs before SolverFailure.
    budgets = []
    budget = lp._Budget
    monkeypatch.setattr(lp, "_Budget",
                        lambda problem: budgets.append(budget(problem)) or budgets[-1])
    space = hypercube(7)
    e, f = _pairs(space, 7, 1)[0]
    report = compat.compute_lambda0(space, e, f)
    assert len(budgets) == 1 and budgets[0].used == report.lp_iterations
    assert budgets[0].cap < 30_000


def _spy_problems(monkeypatch):
    """Record every LpProblem that compat hands to the solver."""
    posed = []
    for module, name in ((compat, "solve_lp"), (compat, "check_feasible")):
        def spy(problem, tol=None, _fn=getattr(module, name)):
            posed.append(problem)
            return _fn(problem, tol)
        monkeypatch.setattr(module, name, spy)
    return posed


@pytest.mark.parametrize("make", [
    gbit_square, lambda: simplex(3), lambda: regular_polygon(8),
    lambda: hypercube(3),
    lambda: make_state_space(np.hstack([regular_polygon(8).vertices, np.zeros((8, 1))])),
], ids=["gbit", "simplex-3", "polygon-8", "hypercube-3", "flat-polygon-8"])
def test_the_package_poses_only_the_two_problem_forms(monkeypatch, make):
    # Every LP is all equalities, or the all-<= lambda primal of a space with
    # at most 4 vertices.
    space = make()
    posed = _spy_problems(monkeypatch)
    lambda_primals = incompatible = 0
    for e, f in _pairs(space, 47, 8):
        report = compat.compute_lambda0(space, e, f)
        compat.min_depolarizing_noise(space, e, f)
        compat.min_scaling_noise(space, e, f, verify=True)
        compat.is_compatible(space, e, f, cross_check=True)
        compat.eq3_feasible(space, e, f)
        incompatible += not report.compatible
        if report.lambda0 > 1.0:  # scaled to lambda0 = 1 + 2e-9: the refresh at lambda = 1
            c = (1.0 + 2e-9) / report.lambda0
            e, f = compat.scale_effect(e, c), compat.scale_effect(f, c)
        compat.joint_observable(space, e, f)
    assert posed and (incompatible >= 2 or space.name.startswith("simplex"))
    zero = np.zeros(space.n_vertices)
    lambda_rows = compat._lambda_problem(space, zero, zero).rows
    for problem in posed:
        if set(problem.relations) != {EQ}:
            assert space.n_vertices <= 4 and set(problem.relations) == {LE}
            assert np.array_equal(problem.rows, lambda_rows)
            lambda_primals += 1
    assert (lambda_primals > 0) == (space.n_vertices < compat._DUAL_MIN_VERTICES)


def test_a_start_the_solver_refuses_is_rejected_before_any_pivot(monkeypatch):
    # A 16-gon prism 1e-8 thick keeps a frame, but the start basis of this
    # pair's lambda dual is too ill-conditioned to be feasible in floating
    # point; it is rejected with the space and the failed condition named.
    angles = 2.0 * np.pi * np.arange(16) / 16
    ring = np.column_stack([np.cos(angles), np.sin(angles)])
    prism = np.vstack([np.hstack([ring, np.zeros((16, 1))]),
                       np.hstack([ring, np.full((16, 1), 1e-8)])])
    rotation = np.linalg.qr(np.random.default_rng(4).normal(size=(3, 3)))[0]
    space = make_state_space(prism @ rotation.T + 0.5, name="thin prism")
    assert space.hull_basis is None and space.n_vertices == 32
    rng = np.random.default_rng(9)
    e, f = compat.random_effect(space, rng), compat.random_effect(space, rng)
    pivots = []
    revised = lp._revised_simplex
    monkeypatch.setattr(lp, "_revised_simplex", lambda *a: pivots.append(a) or revised(*a))
    with pytest.raises(ValueError, match=r"'thin prism'.*lambda0 cannot start: start basis "
                                         r".* is infeasible"):
        compat.compute_lambda0(space, e, f)
    assert pivots == []

