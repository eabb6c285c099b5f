"""Joint measurability of two-outcome measurements on polytope state spaces.

The package decides whether two effects (affine [0,1]-valued functionals on
a convex polytope of states) admit a joint observable, by minimizing the
scaling lambda for which a witness effect g satisfies g <= e, g <= f and
e + f <= g + lambda * u.  The pair is compatible iff the minimum, lambda0,
is at most 1; sigma0 = 2*(1 - 1/lambda0) measures the least smearing noise
that restores compatibility.
"""

from .compat import (
    CompatReport,
    CrossCheckError,
    IncompatibilityError,
    MarkovKernel2x2,
    compute_lambda0,
    depolarizing_kernel,
    eq3_feasible,
    is_compatible,
    joint_observable,
    joint_observable_from_witness,
    min_depolarizing_noise,
    min_scaling_noise,
    random_effect,
    scale_effect,
    scaling_kernel,
    sigma0,
    smear,
)
from .core import (
    Effect,
    EffectRangeError,
    Observable,
    RepresentabilityError,
    StateSpace,
    complement,
    coordinate_effect,
    dichotomic_observable,
    effect_from_affine,
    effect_from_vertex_values,
    leq,
    make_state_space,
    observable_diagnostics,
    separating_effect,
    unit_effect,
    zero_effect,
)
from .lp import SolverFailure
from .models import (
    ModelFormatError,
    gbit_square,
    hypercube,
    load_model,
    regular_polygon,
    save_model,
    simplex,
    zoo_model,
    zoo_names,
)
from .tolerances import DEFAULT_TOLERANCES, SolverTolerances

__version__ = "0.1.0"

__all__ = [
    "CompatReport",
    "CrossCheckError",
    "DEFAULT_TOLERANCES",
    "Effect",
    "EffectRangeError",
    "IncompatibilityError",
    "MarkovKernel2x2",
    "ModelFormatError",
    "Observable",
    "RepresentabilityError",
    "SolverFailure",
    "SolverTolerances",
    "StateSpace",
    "complement",
    "compute_lambda0",
    "coordinate_effect",
    "depolarizing_kernel",
    "dichotomic_observable",
    "effect_from_affine",
    "effect_from_vertex_values",
    "eq3_feasible",
    "gbit_square",
    "hypercube",
    "is_compatible",
    "joint_observable",
    "joint_observable_from_witness",
    "leq",
    "load_model",
    "make_state_space",
    "min_depolarizing_noise",
    "min_scaling_noise",
    "observable_diagnostics",
    "random_effect",
    "regular_polygon",
    "save_model",
    "scale_effect",
    "scaling_kernel",
    "separating_effect",
    "sigma0",
    "simplex",
    "smear",
    "unit_effect",
    "zero_effect",
    "zoo_model",
    "zoo_names",
]
