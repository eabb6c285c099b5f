"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with -s to see them).

Criteria 1-3 and 6-7 share one seeded batch of 200 random pairs per model
(simplex-3, gbit, hypercube-3, polygon-5); the batch is built inside the
criterion-1 timer.
"""

import time

import numpy as np
import pytest

from effectcompat.cli import main as cli_main
from effectcompat.compat import (
    compute_lambda0,
    eq3_feasible,
    joint_observable,
    random_effect,
    scale_effect,
)
from effectcompat.core import observable_diagnostics
from effectcompat.models import zoo_model
from effectcompat.oracle import grid_lambda0

MAIN_MODELS = ("simplex-3", "gbit", "hypercube-3", "polygon-5")
PAIRS_PER_MODEL = 200
SEED = 20260808

_main_batch = None
_main_elapsed = None


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"acceptance criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


def _build_main_batch():
    """(space, e, f, report, feasible_at_1) for every seeded pair."""
    global _main_batch, _main_elapsed
    if _main_batch is None:
        start = time.perf_counter()
        batch = []
        for offset, name in enumerate(MAIN_MODELS):
            space, _ = zoo_model(name)
            rng = np.random.default_rng(SEED + offset)
            for _ in range(PAIRS_PER_MODEL):
                e = random_effect(space, rng)
                f = random_effect(space, rng)
                report = compute_lambda0(space, e, f)
                feasible = eq3_feasible(space, e, f)
                batch.append((space, e, f, report, feasible))
        _main_elapsed = time.perf_counter() - start
        _main_batch = batch
    return _main_batch


def test_criterion_1_compatibility_equals_witness_feasibility():
    batch = _build_main_batch()
    agreements = sum(report.compatible == feasible for _, _, _, report, feasible in batch)
    total = len(batch)
    ok = agreements == total and _main_elapsed < 10.0
    _report(1, ok, f"{agreements}/{total} agree, {_main_elapsed:.2f}s")
    assert agreements == total
    assert _main_elapsed < 10.0


def test_criterion_2_witness_attains_the_minimum():
    batch = _build_main_batch()
    worst = 0.0
    for space, e, f, report, _ in batch:
        ev = e.vertex_values(space)
        fv = f.vertex_values(space)
        gv = report.witness.vertex_values(space)
        violation = max(
            float(np.max(gv - ev)),
            float(np.max(gv - fv)),
            float(np.max(ev + fv - gv - report.lambda0)),
            float(np.max(-gv)),
        )
        worst = max(worst, violation)
    ok = worst <= 1e-7
    _report(2, ok, f"{len(batch)} witnesses, worst violation {worst:.2e}")
    assert worst <= 1e-7


def test_criterion_3_lambda0_and_sigma0_bounds():
    batch = _build_main_batch()
    ok = True
    for space, e, f, report, _ in batch:
        lower = float(np.maximum(e.vertex_values(space), f.vertex_values(space)).max())
        ok = ok and report.lambda0 >= lower - 1e-7
        ok = ok and report.lambda0 <= 2.0 + 1e-7
        ok = ok and 0.0 <= report.sigma0 <= 1.0
    _report(3, ok, f"{len(batch)} pairs inside [max_v max(e,f) - 1e-7, 2 + 1e-7]")
    assert ok


def test_criterion_4_simplex_closed_form():
    total = 0
    worst = 0.0
    all_compatible = True
    for offset, name in enumerate(("simplex-2", "simplex-3", "simplex-4")):
        space, _ = zoo_model(name)
        rng = np.random.default_rng(SEED + 1000 + offset)
        for _ in range(500):
            e = random_effect(space, rng)
            f = random_effect(space, rng)
            report = compute_lambda0(space, e, f)
            # max_v max(e, f), the closed form on a simplex
            closed = float(np.maximum(e.vertex_values(space), f.vertex_values(space)).max())
            worst = max(worst, abs(report.lambda0 - closed))
            all_compatible = all_compatible and report.compatible
            total += 1
    ok = worst <= 1e-9 and all_compatible
    _report(4, ok, f"{total} pairs, max |LP - closed form| = {worst:.2e}, all compatible")
    assert worst <= 1e-9
    assert all_compatible


def test_criterion_5_golden_sharp_square_pair():
    space, effects = zoo_model("gbit")
    e, f = effects["e_x"], effects["e_y"]
    report = compute_lambda0(space, e, f)
    grid = grid_lambda0(space, e, f, resolution=101)
    ok = (
        abs(report.lambda0 - 2.0) <= 1e-9
        and abs(report.sigma0 - 1.0) <= 1e-9
        and float(np.max(np.abs(report.witness.coefficients))) <= 1e-9
        and float(np.max(np.abs(report.witness.vertex_values(space)))) <= 1e-9
        and grid.value == 2.0
    )
    _report(5, ok, f"lambda0 = {report.lambda0!r}, grid = {grid.value!r}, witness = 0")
    assert abs(report.lambda0 - 2.0) <= 1e-9
    assert abs(report.sigma0 - 1.0) <= 1e-9
    assert float(np.max(np.abs(report.witness.coefficients))) <= 1e-9
    assert float(np.max(np.abs(report.witness.vertex_values(space)))) <= 1e-9
    assert grid.value == 2.0


def test_criterion_6_scaling_restores_compatibility():
    batch = _build_main_batch()
    checked = 0
    ok = True
    for space, e, f, report, _ in batch:
        if report.compatible:
            continue
        checked += 1
        lam = report.lambda0
        at_lambda0 = compute_lambda0(
            space, scale_effect(e, 1.0 / lam), scale_effect(f, 1.0 / lam)
        )
        ok = ok and at_lambda0.compatible
        k = 1.0 + 0.75 * (lam - 1.0)
        below = compute_lambda0(
            space, scale_effect(e, 1.0 / k), scale_effect(f, 1.0 / k)
        )
        ok = ok and not below.compatible
    _report(6, ok and checked > 0, f"{checked} incompatible pairs rescaled")
    assert checked > 0
    assert ok


def test_criterion_7_joint_observable_contract():
    batch = _build_main_batch()
    checked = 0
    worst_margin = 0.0
    all_valid = True
    for space, e, f, report, _ in batch:
        if not report.compatible:
            continue
        checked += 1
        obs, _ = joint_observable(space, e, f)
        all_valid = all_valid and not observable_diagnostics(obs, space)
        margin_e = float(np.max(np.abs(
            obs.effects[0].coefficients + obs.effects[1].coefficients - e.coefficients
        )))
        margin_f = float(np.max(np.abs(
            obs.effects[0].coefficients + obs.effects[2].coefficients - f.coefficients
        )))
        worst_margin = max(worst_margin, margin_e, margin_f)
    ok = all_valid and worst_margin <= 1e-9 and checked > 0
    _report(7, ok, f"{checked} compatible pairs, worst margin deviation {worst_margin:.2e}")
    assert checked > 0
    assert all_valid
    assert worst_margin <= 1e-9


def test_criterion_8_oracle_sandwich():
    start = time.perf_counter()
    total = 0
    ok = True
    for offset, name in enumerate(("simplex-2", "simplex-3", "gbit", "polygon-5")):
        space, _ = zoo_model(name)
        assert space.dimension <= 2
        rng = np.random.default_rng(SEED + 100 + offset)
        for _ in range(50):
            e = random_effect(space, rng)
            f = random_effect(space, rng)
            report = compute_lambda0(space, e, f)
            grid = grid_lambda0(space, e, f, resolution=51)
            ok = ok and grid.lower_bound - 1e-9 <= report.lambda0
            ok = ok and report.lambda0 <= grid.value + grid.step_bound + 1e-9
            total += 1
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    _report(8, ok, f"{total} pairs bracketed, {elapsed:.2f}s")
    assert ok


def test_criterion_9_scan_regression(tmp_path, capsys):
    args = [
        "scan", "gbit", "e_x", "e_y",
        "--kernel", "scaling", "--param-range", "1:2:11",
    ]
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    assert cli_main(args + ["--out", str(first)]) == 0
    assert cli_main(args + ["--out", str(second)]) == 0
    identical = first.read_bytes() == second.read_bytes()
    lines = first.read_text().splitlines()
    rows = [ln.split(",") for ln in lines[1:] if not ln.startswith("#")]
    flags = [row[3] == "true" for row in rows]
    flips = [i for i in range(1, len(flags)) if flags[i] != flags[i - 1]]
    single_flip_at_two = (
        len(rows) == 11
        and len(flips) == 1
        and flags[-1]
        and not flags[-2]
        and rows[flips[0]][0] == "2"
    )
    ok = identical and single_flip_at_two
    _report(9, ok, "CSV byte-identical, compatibility flips once at param = 2")
    assert identical
    assert single_flip_at_two
