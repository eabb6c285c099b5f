"""The witness LPs (lambda0, the depolarizing threshold, the least slack of
the eq3 system) solved as (d+2)-row duals by the revised simplex method,
each from the start basis of compat._dual_start."""

import dataclasses

import numpy as np
import pytest

import effectcompat.compat as compat
import effectcompat.lp as lp
from effectcompat.core import make_state_space
from effectcompat.lp import LE, LpProblem, LpStatus, SolverFailure, check_feasible, solve_lp
from effectcompat.models import gbit_square, hypercube, regular_polygon
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
            assert dense.status is LpStatus.OPTIMAL
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
    A, objective = compat._witness_system(space.vertex_matrix(), column, -1.0)
    result = solve_lp(LpProblem(compat._split(objective), compat._split(A),
                                (LE,) * A.shape[0], rhs), tol)
    assert result.status is LpStatus.OPTIMAL
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


def _spy_phase_one(monkeypatch):
    calls = []
    phase_one = lp._revised_phase_one
    monkeypatch.setattr(lp, "_revised_phase_one",
                        lambda problem: calls.append(problem) or phase_one(problem))
    return calls


@pytest.mark.parametrize("make", [lambda: regular_polygon(8), lambda: hypercube(3)],
                         ids=["polygon-8", "hypercube-3"])
def test_witness_duals_start_without_phase_one(monkeypatch, make):
    space = make()
    pairs = _pairs(space, 31, 12)
    calls = _spy_phase_one(monkeypatch)
    incompatible = 0
    for e, f in pairs:
        compat.compute_lambda0(space, e, f)
        incompatible += compat.min_depolarizing_noise(space, e, f) < 1.0
        compat.eq3_feasible(space, e, f)
        compat.eq3_feasible(space, e, f, lam=0.9)
    assert incompatible >= 3
    assert calls == []


def test_space_without_a_frame_falls_back_to_phase_one(monkeypatch):
    # polygon-8 at z = 0 in 3-D spans no 3-d frame, so its duals run phase
    # one; lambda0 and the threshold are those of the planar polygon-8.
    planar = regular_polygon(8)
    flat = make_state_space(np.hstack([planar.vertices, np.zeros((8, 1))]))
    assert flat.frame is None and planar.frame is not None
    calls = _spy_phase_one(monkeypatch)
    for e, f in _pairs(planar, 37, 8):
        e3, f3 = (compat.Effect(np.append(g.coefficients, 0.0)) for g in (e, f))
        assert compat.compute_lambda0(flat, e3, f3).lambda0 == pytest.approx(
            compat.compute_lambda0(planar, e, f).lambda0, abs=1e-12)
        assert compat.min_depolarizing_noise(flat, e3, f3) == pytest.approx(
            compat.min_depolarizing_noise(planar, e, f), abs=1e-12)
        assert compat.eq3_feasible(flat, e3, f3) is compat.eq3_feasible(planar, e, f)
    assert calls and all(problem.start is None for problem in calls)
