"""Numerical tolerances shared by the solver and the geometry layer."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class SolverTolerances:
    """Tolerance bundle threaded through every numerical routine.

    eps_feas   constraint satisfaction slack for LP solutions
    eps_opt    slack when comparing LP optimal values
    eps_geom   slack for geometric checks (effect ranges, observable sums)
    eps_compat slack when comparing lambda0 against 1; must dominate eps_opt,
               since the LP optimum carries solver noise
    """

    eps_feas: float = 1e-9
    eps_opt: float = 1e-9
    eps_geom: float = 1e-9
    eps_compat: float = 1e-7

    def __post_init__(self) -> None:
        for field in ("eps_feas", "eps_opt", "eps_geom", "eps_compat"):
            value = getattr(self, field)
            if not value > 0.0:
                raise ValueError(f"{field} must be strictly positive, got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"{field} must be finite, got {value!r}")
        if self.eps_compat < self.eps_opt:
            raise ValueError(
                f"eps_compat ({self.eps_compat!r}) must be >= eps_opt ({self.eps_opt!r})"
            )


DEFAULT_TOLERANCES = SolverTolerances()
