"""Built-in state-space models and a JSON file format for custom ones.

The file schema (version 1) is a single JSON document:

    {
      "version": 1,
      "name": "gbit",
      "dimension": 2,
      "vertices": [[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]],
      "effects": {
        "e_x": {"affine": [0.5, 0.5, 0.0]},
        "diag": {"values": [1.0, 0.5, 0.5, 0.0]}
      }
    }

An effect is given either by its d+1 affine coefficients (constant term
first) or by its value at every vertex; vertex values go through the
affine-representability check at load time.  Numbers are serialized as
shortest round-trip decimals, so save followed by load reproduces
coefficients exactly.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import numpy as np

from .core import (
    Effect,
    StateSpace,
    coordinate_effect,
    effect_from_affine,
    effect_from_vertex_values,
    make_state_space,
    unit_effect,
)
from .tolerances import DEFAULT_TOLERANCES, SolverTolerances

MODEL_FILE_VERSION = 1

MAX_HYPERCUBE_DIMENSION = 16


class ModelFormatError(ValueError):
    """A model file violates the schema; the message names the field."""


def simplex(n: int) -> StateSpace:
    """Classical model with n pure states: the standard corners in n-1 dims.

    simplex(2) is the segment [0, 1], simplex(3) the triangle
    (0,0), (1,0), (0,1); every effect pair on a simplex is compatible.
    """
    if n < 1:
        raise ValueError(f"simplex needs at least one vertex, got {n}")
    d = n - 1
    vertices = np.vstack([np.zeros((1, d)), np.eye(d)])
    return make_state_space(vertices, name=f"simplex-{n}")


def gbit_square() -> StateSpace:
    """The square state space: the standard example with maximally
    incompatible sharp effects."""
    return make_state_space([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]], name="gbit")


def hypercube(d: int) -> StateSpace:
    if not 1 <= d <= MAX_HYPERCUBE_DIMENSION:
        raise ValueError(
            f"hypercube dimension must be in [1, {MAX_HYPERCUBE_DIMENSION}], got {d}"
        )
    vertices = np.array(list(itertools.product((-1.0, 1.0), repeat=d)))
    return make_state_space(vertices, name=f"hypercube-{d}")


def regular_polygon(n: int) -> StateSpace:
    if n < 3:
        raise ValueError(f"polygon needs at least 3 vertices, got {n}")
    angles = 2.0 * np.pi * np.arange(n) / n
    vertices = np.column_stack([np.cos(angles), np.sin(angles)])
    return make_state_space(vertices, name=f"polygon-{n}")


def _standard_effects(space: StateSpace) -> dict[str, Effect]:
    effects = {"u": unit_effect(space.dimension)}
    effects["half"] = Effect(unit_effect(space.dimension).coefficients * 0.5)
    for axis in range(space.dimension):
        effects[f"x{axis + 1}"] = coordinate_effect(space, axis)
    return effects


def _zoo_gbit() -> tuple[StateSpace, dict[str, Effect]]:
    space = gbit_square()
    effects = {
        "e_x": effect_from_affine(space, [0.5, 0.5, 0.0]),
        "e_y": effect_from_affine(space, [0.5, 0.0, 0.5]),
        "u": unit_effect(2),
        "half": Effect([0.5, 0.0, 0.0]),
    }
    return space, effects


def _zoo_simplex(n: int) -> tuple[StateSpace, dict[str, Effect]]:
    space = simplex(n)
    effects = _standard_effects(space)
    if n == 3:
        effects["a"] = effect_from_vertex_values(space, [0.2, 0.9, 0.4])
        effects["b"] = effect_from_vertex_values(space, [0.8, 0.1, 0.5])
    return space, effects


def _zoo_generic(builder) -> tuple[StateSpace, dict[str, Effect]]:
    space = builder()
    return space, _standard_effects(space)


_ZOO = {
    "simplex-2": lambda: _zoo_simplex(2),
    "simplex-3": lambda: _zoo_simplex(3),
    "simplex-4": lambda: _zoo_simplex(4),
    "gbit": _zoo_gbit,
    "hypercube-3": lambda: _zoo_generic(lambda: hypercube(3)),
    "polygon-5": lambda: _zoo_generic(lambda: regular_polygon(5)),
}


def zoo_names() -> list[str]:
    return list(_ZOO)


def zoo_model(name: str) -> tuple[StateSpace, dict[str, Effect]]:
    """A built-in model with its named effects; KeyError on unknown names."""
    try:
        builder = _ZOO[name]
    except KeyError:
        raise KeyError(
            f"unknown zoo model {name!r}; available: {', '.join(zoo_names())}"
        ) from None
    return builder()


def save_model(path, space: StateSpace, effects: dict[str, Effect],
               name: str | None = None) -> None:
    """Write a version-1 model file; numbers keep full round-trip precision."""
    doc = {
        "version": MODEL_FILE_VERSION,
        "name": name if name is not None else space.name,
        "dimension": space.dimension,
        "vertices": [list(v) for v in space.vertices.tolist()],
        "effects": {
            key: {"affine": list(map(float, eff.coefficients))}
            for key, eff in effects.items()
        },
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _require(doc: dict, field: str, kind, path) -> object:
    if field not in doc:
        raise ModelFormatError(f"{path}: missing required field {field!r}")
    value = doc[field]
    if not isinstance(value, kind) or isinstance(value, bool):  # bool is an int subclass
        raise ModelFormatError(
            f"{path}: field {field!r} must be {kind.__name__}, got {type(value).__name__}"
        )
    return value


def _check_numbers(values: list, field: str, path) -> None:
    """ModelFormatError naming field unless every entry of values is a
    number that a double holds: JSON allows integers too large for any."""
    for x in values:
        if not isinstance(x, (int, float)) or isinstance(x, bool):
            raise ModelFormatError(f"{path}: {field} contains non-number {x!r}")
        try:
            float(x)
        except OverflowError:
            raise ModelFormatError(
                f"{path}: {field} holds an integer too large for a double") from None


def load_model(path, tol: SolverTolerances | None = None
               ) -> tuple[StateSpace, dict[str, Effect]]:
    """Parse and validate a model file.

    Schema violations raise ModelFormatError naming the offending field
    (or the line, for malformed JSON); effect validation failures propagate
    as the usual EffectRangeError / RepresentabilityError.
    """
    tol = tol if tol is not None else DEFAULT_TOLERANCES
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ModelFormatError(f"{path}: cannot read model file: {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except ValueError as exc:  # an integer past Python's int-string digit limit
        raise ModelFormatError(f"{path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ModelFormatError(f"{path}: top level must be an object")
    version = _require(doc, "version", int, path)
    if version != MODEL_FILE_VERSION:
        raise ModelFormatError(
            f"{path}: unsupported version {version}; this reader handles "
            f"version {MODEL_FILE_VERSION}"
        )
    name = _require(doc, "name", str, path)
    dimension = _require(doc, "dimension", int, path)
    if dimension < 0:
        raise ModelFormatError(f"{path}: field 'dimension' must be nonnegative")
    raw_vertices = _require(doc, "vertices", list, path)
    if not raw_vertices:
        raise ModelFormatError(f"{path}: field 'vertices' must be nonempty")
    for i, row in enumerate(raw_vertices):
        if not isinstance(row, list) or len(row) != dimension:
            raise ModelFormatError(
                f"{path}: vertices[{i}] must be a list of {dimension} numbers"
            )
        _check_numbers(row, f"vertices[{i}]", path)
    space = make_state_space(raw_vertices, name=name, tol=tol)
    raw_effects = _require(doc, "effects", dict, path)
    effects: dict[str, Effect] = {}
    for key, entry in raw_effects.items():
        if not isinstance(entry, dict):
            raise ModelFormatError(f"{path}: effects.{key} must be an object")
        forms = set(entry) & {"affine", "values"}
        if len(forms) != 1 or set(entry) - {"affine", "values"}:
            raise ModelFormatError(
                f"{path}: effects.{key} must carry exactly one of "
                f"'affine' or 'values', got keys {sorted(entry)}"
            )
        form = forms.pop()
        payload = entry[form]
        if not isinstance(payload, list):
            raise ModelFormatError(f"{path}: effects.{key}.{form} must be a number list")
        _check_numbers(payload, f"effects.{key}.{form}", path)
        if form == "affine":
            if len(payload) != dimension + 1:
                raise ModelFormatError(
                    f"{path}: effects.{key}.affine needs {dimension + 1} coefficients, "
                    f"got {len(payload)}"
                )
            effects[key] = effect_from_affine(space, payload, tol)
        else:
            if len(payload) != space.n_vertices:
                raise ModelFormatError(
                    f"{path}: effects.{key}.values needs {space.n_vertices} entries "
                    f"(one per vertex after deduplication), got {len(payload)}"
                )
            effects[key] = effect_from_vertex_values(space, payload, tol)
    return space, effects
