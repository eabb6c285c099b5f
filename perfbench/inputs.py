"""Seeded inputs of the benchmark workloads.

Every input is drawn from numpy.random.default_rng(seed): the model files
the program loads, the effect pairs it is asked about and the model file one
CLI command reads.  The program only ever receives these generated inputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from effectcompat import compat, models

from .tracing import Tracer, span

FULL_SPAN = (1.0, 1.0)

# The k=128 models: a 2-d polygon and a 7-d cube, both with 4k = 512 LP rows.
LAMBDA_MODELS = {
    "polygon-128": lambda: models.regular_polygon(128),
    "hypercube-7": lambda: models.hypercube(7),
}
# Small models (k = 4 to 8), where per-call overhead outweighs pivots.
NOISE_MODELS = {
    "gbit": models.gbit_square,
    "polygon-8": lambda: models.regular_polygon(8),
    "hypercube-3": lambda: models.hypercube(3),
}

CLI_MODEL_NAME = "seeded-polygon-6"
CLI_MODEL_FILE = "cli-model.json"

# Fixed CLI commands with their golden stdout and exit code, captured at the
# commit that introduced the benchmark.  The seeded model-file check is
# checked against the HiGHS reference instead.
CLI_GOLDENS = json.loads(
    (Path(__file__).resolve().parent / "cli_goldens.json").read_text(encoding="utf-8"))
CLI_FILE_COMMAND = "check-model-file"


@dataclass(frozen=True)
class Pair:
    index: int
    model: str
    space: object
    e: object
    f: object


@dataclass(frozen=True)
class Command:
    name: str
    argv: tuple[str, ...]


@dataclass(frozen=True)
class Inputs:
    pool: list
    files: list[Path]


def _load_models(builders: dict, workdir: Path, tracer: Tracer | None) -> tuple[dict, list[Path]]:
    """Write each model to a file and load it back through load_model."""
    spaces, files = {}, []
    for name, build in builders.items():
        path = workdir / f"{name}.json"
        models.save_model(path, build(), {})
        with span(tracer, "models.load_model"):
            spaces[name], _ = models.load_model(path)
        files.append(path)
    return spaces, files


def lambda_inputs(seed: int, workdir: Path, n_pairs: int,
                  tracer: Tracer | None = None) -> Inputs:
    """Pairs alternate between the models; in every four, two use the default
    random_effect and two the full span, so that both verdicts occur."""
    spaces, files = _load_models(LAMBDA_MODELS, workdir, tracer)
    names = list(spaces)
    rng = np.random.default_rng(seed)
    pool = []
    for i in range(n_pairs):
        name = names[i % len(names)]
        space = spaces[name]
        if (i // 2) % 2:
            e = compat.random_effect(space, rng, span_range=FULL_SPAN)
            f = compat.random_effect(space, rng, span_range=FULL_SPAN)
        else:
            e = compat.random_effect(space, rng)
            f = compat.random_effect(space, rng)
        pool.append(Pair(i, name, space, e, f))
    return Inputs(pool, files)


def noise_inputs(seed: int, workdir: Path, n_pairs: int,
                 tracer: Tracer | None = None) -> Inputs:
    """Full-span pairs, rotating over the small models."""
    spaces, files = _load_models(NOISE_MODELS, workdir, tracer)
    names = list(spaces)
    rng = np.random.default_rng(seed)
    pool = []
    for i in range(n_pairs):
        name = names[i % len(names)]
        space = spaces[name]
        e = compat.random_effect(space, rng, span_range=FULL_SPAN)
        f = compat.random_effect(space, rng, span_range=FULL_SPAN)
        pool.append(Pair(i, name, space, e, f))
    return Inputs(pool, files)


def cli_inputs(seed: int, workdir: Path) -> Inputs:
    """The fixed commands plus one check on a seeded model file."""
    space = models.regular_polygon(6)
    rng = np.random.default_rng(seed)
    effects = {
        "e": compat.random_effect(space, rng, span_range=FULL_SPAN),
        "f": compat.random_effect(space, rng, span_range=FULL_SPAN),
    }
    path = workdir / CLI_MODEL_FILE
    models.save_model(path, space, effects, name=CLI_MODEL_NAME)
    pool = [Command(name, tuple(golden["argv"])) for name, golden in CLI_GOLDENS.items()]
    pool.append(Command(CLI_FILE_COMMAND, ("check", str(path), "e", "f", "--json")))
    return Inputs(pool, [path])


def input_bytes(inputs: Inputs, workdir: Path) -> bytes:
    """Canonical bytes of generated inputs, for determinism checks."""
    chunks = [path.name.encode() + b"\0" + path.read_bytes() for path in inputs.files]
    for item in inputs.pool:
        if isinstance(item, Pair):
            chunks.append(item.model.encode() + item.e.coefficients.tobytes()
                          + item.f.coefficients.tobytes())
        else:
            argv = [a.replace(str(workdir), "<workdir>") for a in item.argv]
            chunks.append("\0".join([item.name, *argv]).encode())
    return b"\n".join(chunks)
