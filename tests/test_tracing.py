"""The benchmark's tracer (perfbench/) against the package's module names.

`perfbench/run.py --trace 1` rebinds names that compat, core and cli import;
a refactor that drops one of them would otherwise break only traced runs.
"""

import pytest

from effectcompat.models import zoo_model
from perfbench import inputs, workloads


@pytest.mark.parametrize("make", [
    lambda root: workloads.LambdaK128(),
    lambda root: workloads.NoiseSmall(),
    workloads.CliProcess,
], ids=["lambda-k128", "noise-small", "cli-process"])
def test_tracer_rebinds_every_target_and_restores_it(tmp_path, make):
    tracer = workloads._install_tracer(make(tmp_path))
    targets = list(tracer._undo)
    assert targets
    try:
        for module, attr, original in targets:
            assert getattr(module, attr) is not original, (module.__name__, attr)
    finally:
        tracer.uninstall()
    for module, attr, original in targets:
        assert getattr(module, attr) is original, (module.__name__, attr)


def test_traced_noise_query_spans(tmp_path):
    # min_depolarizing_noise: one lambda LP and the threshold LP;
    # min_scaling_noise: one lambda LP and two slack LPs;
    # is_compatible(cross_check=True): one lambda LP and one slack LP.
    # Every one is a solve_lp call; none is a phase-one check.
    space, effects = zoo_model("gbit")
    pair = inputs.Pair(0, "gbit", space, effects["e_x"], effects["e_y"])
    workload = workloads.NoiseSmall()
    tracer = workloads._install_tracer(workload)
    try:
        t, k, verdict = workload.query(pair, tracer)
    finally:
        tracer.uninstall()
    assert (k, verdict) == (pytest.approx(2.0), False)
    assert t == pytest.approx(0.5, abs=1e-7)
    spans = {name: tracer.names.count(name)
             for name in ("compat.compute_lambda0", "lp.solve_lp", "lp.check_feasible")}
    assert spans == {"compat.compute_lambda0": 3, "lp.solve_lp": 7, "lp.check_feasible": 0}
