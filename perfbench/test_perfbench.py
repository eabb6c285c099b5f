"""Tests of the benchmark's own pieces: seeded inputs and the output checks.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from effectcompat import compat, core, models

from perfbench import inputs, workloads

INPUT_MAKERS = {
    "lambda-k128": lambda seed, d: inputs.lambda_inputs(seed, d, 8),
    "noise-small": lambda seed, d: inputs.noise_inputs(seed, d, 12),
    "cli-process": inputs.cli_inputs,
}


@pytest.mark.parametrize("workload", sorted(INPUT_MAKERS))
def test_same_seed_gives_byte_identical_inputs(tmp_path, workload):
    make = INPUT_MAKERS[workload]
    blobs = {}
    for label, seed in (("a", 5), ("b", 5), ("c", 6)):
        workdir = tmp_path / label
        workdir.mkdir()
        blobs[label] = inputs.input_bytes(make(seed, workdir), workdir)
    assert blobs["a"] == blobs["b"]
    assert blobs["a"] != blobs["c"]


def _lambda_records():
    space = models.regular_polygon(8)
    rng = np.random.default_rng(3)
    records = []
    for i in range(3):
        e = compat.random_effect(space, rng, span_range=inputs.FULL_SPAN)
        f = compat.random_effect(space, rng)
        pair = inputs.Pair(i, "polygon-8", space, e, f)
        records.append(workloads.Record(i, pair, 0.0, compat.compute_lambda0(space, e, f)))
    return records


def _run_check(workload, records) -> workloads.Check:
    check = workloads.Check(workload.name, seed=0)
    workload.check(records, check)
    return check


def test_lambda_checker_passes_true_outputs():
    check = _run_check(workloads.LambdaK128(), _lambda_records())
    assert check.correct and not check.failed


def test_lambda_checker_catches_corrupted_lambda0():
    records = _lambda_records()
    report = records[1].output
    records[1].output = dataclasses.replace(report, lambda0=report.lambda0 + 1e-5)
    check = _run_check(workloads.LambdaK128(), records)
    assert not check.correct
    assert check.failed == {1}


def test_lambda_checker_catches_corrupted_witness():
    records = _lambda_records()
    report = records[2].output
    shifted = report.witness.coefficients + np.array([1e-3, 0.0, 0.0])
    records[2].output = dataclasses.replace(report, witness=core.Effect(shifted))
    check = _run_check(workloads.LambdaK128(), records)
    assert not check.correct
    assert check.failed == {2}


def test_noise_checker_catches_corrupted_threshold():
    space = models.hypercube(3)
    rng = np.random.default_rng(4)
    e = compat.random_effect(space, rng, span_range=inputs.FULL_SPAN)
    f = compat.random_effect(space, rng, span_range=inputs.FULL_SPAN)
    pair = inputs.Pair(0, "hypercube-3", space, e, f)
    query = workloads.NoiseSmall().query(pair, None)
    t, k, verdict = query
    records = [workloads.Record(0, pair, 0.0, query),
               workloads.Record(1, pair, 0.0, (t - 1e-4, k, verdict))]
    check = _run_check(workloads.NoiseSmall(), records)
    assert not check.correct
    assert check.failed == {1}


def _golden_records():
    records = []
    for i, (name, golden) in enumerate(inputs.CLI_GOLDENS.items()):
        command = inputs.Command(name, tuple(golden["argv"]))
        output = (golden["exit"], golden["stdout"].encode("utf-8"))
        records.append(workloads.Record(i, command, 0.0, output))
    return records


def test_cli_checker_passes_golden_output(tmp_path):
    check = _run_check(workloads.CliProcess(tmp_path), _golden_records())
    assert check.correct and not check.failed


def test_cli_checker_catches_a_flipped_golden_byte(tmp_path):
    records = _golden_records()
    code, stdout = records[0].output
    flipped = bytearray(stdout)
    flipped[len(flipped) // 2] ^= 0x01
    records[0].output = (code, bytes(flipped))
    check = _run_check(workloads.CliProcess(tmp_path), records)
    assert not check.correct
    assert check.failed == {0}


def test_a_run_makes_a_fixed_number_of_queries_in_whole_rotations(tmp_path):
    for workload in (workloads.LambdaK128(), workloads.NoiseSmall(),
                     workloads.CliProcess(tmp_path)):
        for seconds in (0.01, 1.0, 30.0):
            n = workloads.query_count(workload, seconds)
            assert n >= workload.rotation and n % workload.rotation == 0


def test_closed_loop_counts_failing_queries_and_goes_on():
    def query(item, tracer):
        if item == "bad":
            raise RuntimeError("no")
        return item

    records, _ = workloads.closed_loop(["ok", "bad", "ok"], query, 7, 60.0, None)
    assert [r.index for r in records] == list(range(7))
    assert [r.error is not None for r in records] == [False, True, False] * 2 + [False]
