"""The lambda LP solved as its (d+2)-row dual by the revised simplex method."""

import dataclasses

import numpy as np
import pytest

import effectcompat.compat as compat
from effectcompat.lp import LpStatus, SolverFailure, solve_lp
from effectcompat.models import hypercube, regular_polygon
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
