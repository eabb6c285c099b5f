"""Independent references for the benchmark's correctness checks.

lambda0 and the depolarizing threshold are re-solved by HiGHS through scipy,
from formulations written here rather than taken from the package; witnesses
are checked on the vertices with numpy; CLI output is compared byte for byte
with goldens.  scipy is a dependency of the benchmark only, and is imported
after the timed region.
"""

from __future__ import annotations

import numpy as np


def vertex_matrix(vertices) -> np.ndarray:
    """(k, d+1) matrix [1 | V]: row i dotted with affine coefficients is the value at vertex i."""
    v = np.asarray(vertices, dtype=float)
    return np.hstack([np.ones((v.shape[0], 1)), v])


def _highs_min(c, a_ub, b_ub, bounds, feas_tol: float) -> float:
    from scipy.optimize import linprog

    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs",
                  options={"primal_feasibility_tolerance": feas_tol,
                           "dual_feasibility_tolerance": feas_tol})
    if res.status != 0:
        raise RuntimeError(f"HiGHS reference solve failed: {res.message}")
    return float(res.fun)


def lambda0(m: np.ndarray, ev: np.ndarray, fv: np.ndarray, feas_tol: float) -> float:
    """min lam over (g, lam) with 0 <= M g <= min(e, f) and e + f - M g <= lam."""
    k, n = m.shape
    zeros, ones = np.zeros((k, 1)), np.ones((k, 1))
    a_ub = np.vstack([np.hstack([-m, zeros]), np.hstack([m, zeros]), np.hstack([-m, -ones])])
    b_ub = np.concatenate([np.zeros(k), np.minimum(ev, fv), -(ev + fv)])
    c = np.zeros(n + 1)
    c[-1] = 1.0
    return _highs_min(c, a_ub, b_ub, [(None, None)] * (n + 1), feas_tol)


def depolarizing_threshold(m: np.ndarray, ev: np.ndarray, fv: np.ndarray,
                           lam: float, feas_tol: float) -> float:
    """max t in [0, 1] such that e_t = t e + (1 - t)/2 and f_t admit a witness
    g with 0 <= g <= min(e_t, f_t) and e_t + f_t - g <= lam; one LP in (g, t).
    """
    k, n = m.shape
    zeros = np.zeros((k, 1))
    a_ub = np.vstack([
        np.hstack([-m, zeros]),
        np.hstack([m, -(ev - 0.5)[:, None]]),
        np.hstack([m, -(fv - 0.5)[:, None]]),
        np.hstack([-m, (ev + fv - 1.0)[:, None]]),
    ])
    b_ub = np.concatenate([np.zeros(k), np.full(2 * k, 0.5), np.full(k, lam - 1.0)])
    c = np.zeros(n + 1)
    c[-1] = -1.0
    return -_highs_min(c, a_ub, b_ub, [(None, None)] * n + [(0.0, 1.0)], feas_tol)


def witness_violation(ev: np.ndarray, fv: np.ndarray, gv: np.ndarray, lam: float) -> float:
    """Largest breach of 0 <= g <= min(e, f) and e + f - g <= lam on the vertices."""
    return float(max(np.max(-gv), np.max(gv - np.minimum(ev, fv)),
                     np.max(ev + fv - gv - lam)))


def golden_mismatch(expected_exit: int, expected_stdout: bytes,
                    exit_code: int, stdout: bytes) -> str | None:
    """None when exit code and stdout bytes match the golden, else the first difference."""
    if exit_code != expected_exit:
        return f"exit code {exit_code}, golden {expected_exit}"
    if stdout != expected_stdout:
        at = next((i for i, (a, b) in enumerate(zip(stdout, expected_stdout)) if a != b),
                  min(len(stdout), len(expected_stdout)))
        return (f"stdout differs from the golden at byte {at} "
                f"({len(stdout)} bytes, golden {len(expected_stdout)})")
    return None
