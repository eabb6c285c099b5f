"""The benchmark's tracer (perfbench/) against the package's module names.

`perfbench/run.py --trace 1` rebinds names that compat, core and cli import;
a refactor that drops one of them would otherwise break only traced runs.
"""

import math

import pytest

from effectcompat import lp
from effectcompat.models import zoo_model
from perfbench import inputs, tracing, workloads


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
    # min_depolarizing_noise: one lambda LP and the threshold LP, on vertex
    # values it checks once, so its lambda LP is not a compute_lambda0 call;
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
    assert spans == {"compat.compute_lambda0": 2, "lp.solve_lp": 7, "lp.check_feasible": 0}


@pytest.mark.parametrize("model, names, dense", [
    ("gbit", ("e_x", "e_y"), True),
    ("polygon-5", ("x1", "x2"), False),
], ids=["gbit", "polygon-5"])
def test_layer_metrics_read_the_recorded_problems(model, names, dense):
    # layer_metrics and phase1_share read relations, bounds and
    # check_feasible off every recorded LpProblem: on gbit the lambda primal
    # takes the dense tableau, on polygon-5 every LP is a witness dual.
    space, effects = zoo_model(model)
    pair = inputs.Pair(0, model, space, *(effects[name] for name in names))
    workload = workloads.NoiseSmall()
    tracer = workloads._install_tracer(workload)
    try:
        tracer.query = 0
        with tracer.span("query"):
            workload.query(pair, tracer)
    finally:
        tracer.uninstall()
    problems = [problem for _, problem, _ in tracer.lp_solves]
    assert any(problem.start is None for problem in problems) is dense
    metrics = tracing.layer_metrics(tracer, 1, 0, root_span="query")
    share = tracing.phase1_share(tracer, lp.solve_lp, lp.check_feasible, 1.0, 64)
    assert metrics["lp.solve_lp.calls"] > 0 and metrics["lp.failures"] == 0
    assert all(math.isfinite(value) for value in [share, *metrics.values()]), metrics
