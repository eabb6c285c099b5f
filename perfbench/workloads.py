"""The benchmark's workloads: set-up, a closed loop with one caller, reference
checks after the timed region, and the metrics.

lambda-k128  one compute_lambda0 call per query on k=128 models, where dense
             tableau pivots in lp dominate;
noise-small  the three noise/verdict entry points per query on k=4..8
             models, about 68 tiny LPs each, where per-call overhead in lp,
             core and compat dominates;
cli-process  one effectcompat subprocess per query, where interpreter start
             and imports dominate and a solver change should show no effect.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from effectcompat import cli, compat, core, lp

from . import inputs, reference
from .tracing import SETUP, Tracer, layer_metrics, phase1_share, span

HERE = Path(__file__).resolve().parent
SETTINGS = json.loads((HERE / "settings.json").read_text(encoding="utf-8"))
TOL = SETTINGS["tolerances"]
OUT_DIR = ".perfbench_out"
CLI_TIMEOUT_S = 60.0
TAIL_BEYOND = 10


@dataclass
class Record:
    index: int
    item: object
    seconds: float
    output: object = None
    error: str | None = None


class Check:
    """Outcome of the reference checks: failed queries and the worst errors."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.failed: set[int] = set()
        self.correct = True  # False once an output falls outside a tolerance
        self.lambda0_err_max = 0.0
        self.witness_violation_max = 0.0

    def fail(self, record: Record, model: str, shape: str, reason: str) -> None:
        self.failed.add(record.index)
        sys.stderr.write(
            f"FAIL {self.workload} seed={self.seed} query={record.index} "
            f"model={model} shape={shape}: {reason}\n"
        )

    def lambda0(self, record, model, shape, value: float, ref: float) -> None:
        err = abs(value - ref)
        self.lambda0_err_max = max(self.lambda0_err_max, err)
        if err > TOL["lambda0_abs"]:
            self.correct = False
            self.fail(record, model, shape, f"lambda0 {value!r}, reference {ref!r}")

    def witness(self, record, model, shape, violation: float) -> None:
        self.witness_violation_max = max(self.witness_violation_max, violation)
        if violation > TOL["witness_abs"]:
            self.correct = False
            self.fail(record, model, shape, f"witness violates a constraint by {violation:.3g}")

    def verdict(self, record, model, shape, compatible: bool, ref_lambda0: float) -> None:
        threshold = 1.0 + TOL["eps_compat"]
        if abs(ref_lambda0 - threshold) <= TOL["lambda0_abs"]:
            return  # within tolerance of the threshold either verdict is right
        if compatible != (ref_lambda0 <= threshold):
            self.correct = False
            self.fail(record, model, shape,
                      f"verdict compatible={compatible}, reference lambda0 {ref_lambda0!r}")


class PairReference:
    """HiGHS lambda0 per pair, computed once per pair."""

    def __init__(self) -> None:
        self._cache: dict[int, tuple] = {}

    def __call__(self, pair: inputs.Pair):
        if pair.index not in self._cache:
            m = reference.vertex_matrix(pair.space.vertices)
            ev, fv = m @ pair.e.coefficients, m @ pair.f.coefficients
            lam = reference.lambda0(m, ev, fv, TOL["highs_feasibility"])
            self._cache[pair.index] = (m, ev, fv, lam)
        return self._cache[pair.index]


def _lp_shape(space) -> str:
    return f"{4 * space.n_vertices}x{space.dimension + 2}"


class LambdaK128:
    name = "lambda-k128"
    settings = SETTINGS["workloads"]["lambda-k128"]
    rotation = 4  # two models, two effect spans

    def setup(self, seed, workdir, tracer):
        return inputs.lambda_inputs(seed, workdir, self.settings["pool_pairs"], tracer)

    def query(self, pair, tracer):
        return compat.compute_lambda0(pair.space, pair.e, pair.f)

    def check(self, records, check: Check) -> None:
        ref = PairReference()
        for r in records:
            pair = r.item
            shape = _lp_shape(pair.space)
            if r.error is not None:
                check.fail(r, pair.model, shape, f"raised {r.error}")
                continue
            m, ev, fv, lam = ref(pair)
            check.lambda0(r, pair.model, shape, r.output.lambda0, lam)
            gv = m @ r.output.witness.coefficients
            check.witness(r, pair.model, shape,
                          reference.witness_violation(ev, fv, gv, r.output.lambda0))


class NoiseSmall:
    name = "noise-small"
    settings = SETTINGS["workloads"]["noise-small"]
    rotation = len(inputs.NOISE_MODELS)

    def setup(self, seed, workdir, tracer):
        return inputs.noise_inputs(seed, workdir, self.settings["pool_pairs"], tracer)

    def query(self, pair, tracer):
        space, e, f = pair.space, pair.e, pair.f
        with span(tracer, "compat.noise"):
            t = compat.min_depolarizing_noise(space, e, f)
        with span(tracer, "compat.noise"):
            k = compat.min_scaling_noise(space, e, f, verify=True)
        with span(tracer, "compat.noise"):
            verdict = compat.is_compatible(space, e, f, cross_check=True)
        return t, k, verdict

    def check(self, records, check: Check) -> None:
        ref = PairReference()
        thresholds: dict[int, tuple[float, float]] = {}
        for r in records:
            pair = r.item
            shape = _lp_shape(pair.space)
            if r.error is not None:
                check.fail(r, pair.model, shape, f"raised {r.error}")
                continue
            t, k, verdict = r.output
            m, ev, fv, lam = ref(pair)
            if pair.index not in thresholds:
                thresholds[pair.index] = tuple(
                    reference.depolarizing_threshold(m, ev, fv, level, TOL["highs_feasibility"])
                    for level in (1.0, 1.0 + TOL["eps_compat"]))
            t_lo, t_hi = thresholds[pair.index]
            if not t_lo - TOL["depolarizing_t_abs"] <= t <= t_hi + TOL["depolarizing_t_abs"]:
                check.correct = False
                check.fail(r, pair.model, shape,
                           f"depolarizing threshold {t!r}, reference [{t_lo!r}, {t_hi!r}]")
            check.lambda0(r, pair.model, shape, k, max(1.0, lam))
            check.verdict(r, pair.model, shape, verdict, lam)


class CliProcess:
    name = "cli-process"
    settings = SETTINGS["workloads"]["cli-process"]
    rotation = len(inputs.CLI_GOLDENS) + 1  # the golden commands and the model-file check

    def __init__(self, root: Path) -> None:
        self.root = root
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)

    def run_cli(self, argv) -> tuple[int, bytes]:
        proc = subprocess.run([sys.executable, "-m", "effectcompat.cli", *argv],
                              cwd=self.root, env=self.env, capture_output=True,
                              timeout=CLI_TIMEOUT_S)
        return proc.returncode, proc.stdout

    def setup(self, seed, workdir, tracer):
        result = inputs.cli_inputs(seed, workdir)
        self.run_cli(result.pool[-1].argv)  # untimed warm-up: fills the page cache
        return result

    def query(self, command, tracer):
        return self.run_cli(command.argv)

    def check(self, records, check: Check) -> None:
        file_ref: dict[str, tuple] = {}
        for r in records:
            command = r.item
            if r.error is not None:
                check.fail(r, command.name, "process", f"raised {r.error}")
                continue
            code, stdout = r.output
            if command.name in inputs.CLI_GOLDENS:
                golden = inputs.CLI_GOLDENS[command.name]
                reason = reference.golden_mismatch(
                    golden["exit"], golden["stdout"].encode("utf-8"), code, stdout)
                if reason is not None:
                    check.correct = False
                    check.fail(r, command.name, "process", reason)
            else:
                self._check_model_file(r, command, code, stdout, check, file_ref)

    def _check_model_file(self, r, command, code, stdout, check, file_ref) -> None:
        path = command.argv[1]
        if path not in file_ref:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
            m = reference.vertex_matrix(doc["vertices"])
            ev = m @ np.array(doc["effects"]["e"]["affine"])
            fv = m @ np.array(doc["effects"]["f"]["affine"])
            lam = reference.lambda0(m, ev, fv, TOL["highs_feasibility"])
            file_ref[path] = (ev, fv, lam, f"{4 * len(ev)}x{doc['dimension'] + 2}")
        ev, fv, lam, shape = file_ref[path]
        try:
            payload = json.loads(stdout)
        except ValueError:
            check.correct = False
            check.fail(r, inputs.CLI_MODEL_NAME, shape, f"stdout is not JSON (exit {code})")
            return
        expected_exit = cli.EXIT_OK if payload["compatible"] else cli.EXIT_INCOMPATIBLE
        if code != expected_exit:
            check.correct = False
            check.fail(r, inputs.CLI_MODEL_NAME, shape,
                       f"exit code {code} with compatible={payload['compatible']}")
        check.lambda0(r, inputs.CLI_MODEL_NAME, shape, payload["lambda0"], lam)
        gv = np.array(payload["witness"]["vertex_values"])
        check.witness(r, inputs.CLI_MODEL_NAME, shape,
                      reference.witness_violation(ev, fv, gv, payload["lambda0"]))
        check.verdict(r, inputs.CLI_MODEL_NAME, shape, payload["compatible"], lam)

    def replay(self, pool, tracer: Tracer) -> int:
        """Run each command once in this process, so the trace attributes its work."""
        for i, command in enumerate(pool):
            tracer.query = f"replay-{i}"
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                with tracer.span("replay"):
                    cli.main(list(command.argv))
        return len(pool)

    def probes(self, pool, repeats: int) -> dict[str, float]:
        """Wall times of bare interpreter start, each import step and the
        workload's commands, taken in rounds.  Each step is the difference of
        two probes within one round, and the metric is its median over the
        rounds, so that a slow spell of the machine hits both sides alike."""
        codes = ("pass", "import numpy", "import effectcompat.cli")
        rounds = []
        for _ in range(repeats):
            times = []
            for code in codes:
                t0 = time.perf_counter()
                subprocess.run([sys.executable, "-c", code], cwd=self.root, env=self.env,
                               check=True, capture_output=True, timeout=CLI_TIMEOUT_S)
                times.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            for command in pool:
                self.run_cli(command.argv)
            times.append((time.perf_counter() - t0) / len(pool))
            rounds.append(times)

        steps = [(bare, np_ - bare, pkg - np_, proc - pkg, pkg / proc)
                 for bare, np_, pkg, proc in rounds]
        medians = [statistics.median(column) for column in zip(*steps)]
        names = ("cli.interpreter_ms", "cli.numpy_import_ms", "cli.package_import_ms",
                 "cli.command_ms")
        result = {name: 1000.0 * m for name, m in zip(names, medians)}
        result["cli.startup_share"] = medians[-1]
        return result


def query_count(workload, seconds: float) -> int:
    """Queries in one run: the planned rate times --seconds, rounded to whole
    rotations of the pool, so that a run's mix is exact and attempted and
    failed repeat exactly for a seed."""
    rotation = workload.rotation
    rounds = round(seconds * workload.settings["planned_queries_per_s"] / rotation)
    return rotation * max(1, rounds)


def closed_loop(pool, query, n_queries: int, cap_s: float,
                tracer: Tracer | None) -> tuple[list[Record], float]:
    """One caller: each query starts when the previous one has returned.

    Runs n_queries queries, cycling through the pool.  A host slow enough to
    push the run past cap_s seconds stops it early, so that a run stays
    within its time limit; the query in flight then completes and counts.
    """
    records: list[Record] = []
    start = time.perf_counter()
    end = start
    while len(records) < n_queries and (not records or end - start < cap_s):
        i = len(records)
        item = pool[i % len(pool)]
        if tracer is not None:
            tracer.query = i
        t0 = time.perf_counter()
        output, error = None, None
        try:
            with span(tracer, "query"):
                output = query(item, tracer)
        except Exception as exc:  # a failing query is counted, and the loop goes on
            error = f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        records.append(Record(i, item, end - t0, output, error))
    if len(records) < n_queries:
        sys.stderr.write(f"warning: stopped after {len(records)} of {n_queries} queries, "
                         f"at the {cap_s:.0f} s cap\n")
    return records, end - start


def _tail(latencies: list[float]) -> tuple[float, float, int]:
    """The sample with TAIL_BEYOND samples above it: (value, percentile, n)."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = max(1, n - TAIL_BEYOND)  # 1-based nearest rank
    return ordered[rank - 1], 100.0 * rank / n, n


def _peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss * 1024 / 1e6  # ru_maxrss is in KiB


def make(name: str, root: Path):
    if name == LambdaK128.name:
        return LambdaK128()
    if name == NoiseSmall.name:
        return NoiseSmall()
    if name == CliProcess.name:
        return CliProcess(root)
    raise ValueError(f"unknown workload {name!r}")


NAMES = (LambdaK128.name, NoiseSmall.name, CliProcess.name)


def _install_tracer(workload) -> Tracer:
    tracer = Tracer()
    targets = [
        (compat, "solve_lp", "lp.solve_lp"),
        (compat, "check_feasible", "lp.check_feasible"),
        (compat, "compute_lambda0", "compat.compute_lambda0"),
        (compat, "effect_from_affine", "core.effect_from_affine"),
        (core, "check_feasible", "lp.check_feasible"),
    ]
    if isinstance(workload, CliProcess):
        targets.append((cli, "compute_lambda0", "compat.compute_lambda0"))
    tracer.install(*targets)
    return tracer


def _layers(workload, pool, n_queries: int, n_setups: int, tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of a traced run; uninstalls the tracer."""
    is_cli = isinstance(workload, CliProcess)
    try:
        if is_cli:  # the subprocesses are opaque; replay their commands in-process
            n_queries = workload.replay(pool, tracer)
    finally:
        tracer.uninstall()
    layers = layer_metrics(tracer, n_queries, n_setups,
                           root_span="replay" if is_cli else "query")
    cfg = SETTINGS["trace"]
    share = phase1_share(tracer, lp.solve_lp, lp.check_feasible,
                         cfg["phase1_probe_budget_s"], cfg["phase1_probe_max_problems"])
    layers["lp.phase1_s"] = share * layers["lp.solve_lp.s"]
    layers["lp.phase2_s"] = layers["lp.solve_lp.s"] - layers["lp.phase1_s"]
    if is_cli:
        layers.update(workload.probes(pool, cfg["cli_probe_repeats"]))
    else:
        layers.update(dict.fromkeys(
            ("cli.interpreter_ms", "cli.numpy_import_ms", "cli.package_import_ms",
             "cli.command_ms", "cli.startup_share"), 0.0))
    return layers


def run(name: str, seed: int, seconds: float, trace: bool,
        root: Path) -> tuple[dict, dict[str, float], list[str]]:
    """Run one workload from the checkout at root.

    Returns the result fields (correct, attempted, failed), the metrics
    (end-to-end, or per-layer when tracing) and human-readable summary lines.
    """
    workload = make(name, root)
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    tracer = _install_tracer(workload) if trace else None
    try:
        with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
            setup_times = []

            def set_up(r):
                workdir = Path(tmp) / f"setup-{r}"
                workdir.mkdir()
                t0 = time.perf_counter()
                result = workload.setup(seed, workdir, tracer)
                setup_times.append(time.perf_counter() - t0)
                return result

            # Half the set-ups run before the timed loop and half after it, so
            # that their median spans the run, not one spell of a noisy host.
            repeats = workload.settings["setup_repeats"]
            before = repeats - repeats // 2
            for r in range(before):
                data = set_up(r)
            n_queries = query_count(workload, seconds)
            cap_s = SETTINGS["loop"]["cap_factor"] * seconds
            records, elapsed = closed_loop(data.pool, workload.query, n_queries, cap_s, tracer)
            peak_rss = _peak_rss_mb(resource.RUSAGE_CHILDREN if isinstance(workload, CliProcess)
                                    else resource.RUSAGE_SELF)
            if tracer is not None:
                tracer.query = SETUP
            for r in range(before, repeats):
                set_up(r)
            if tracer is not None:
                layers = _layers(workload, data.pool, len(records), len(setup_times), tracer)
                tracer.write(out_dir / f"trace-{name}-seed{seed}.json")
            check = Check(name, seed)
            workload.check(records, check)
    finally:
        if tracer is not None:
            tracer.uninstall()

    latencies = [r.seconds for r in records]
    tail, tail_pct, n = _tail(latencies)
    attempted, failed = len(records), len(check.failed)
    summary = [
        f"{name} seed={seed}: {attempted} queries in {elapsed:.2f} s, {failed} failed, "
        f"outputs {'correct' if check.correct else 'INCORRECT'}",
        f"latency_tail_ms is p{tail_pct:.1f} of {n} samples ({n - max(1, n - TAIL_BEYOND)} beyond)",
        f"setup_s is the median of {len(setup_times)} set-ups: "
        + ", ".join(f"{t:.4f}" for t in setup_times),
    ]
    result = {"correct": check.correct, "attempted": attempted, "failed": failed}
    if tracer is not None:
        layers.update({
            "check.lambda0_err_max": check.lambda0_err_max,
            "check.witness_violation_max": check.witness_violation_max,
            "latency_tail.percentile": tail_pct,
            "latency_tail.samples": n,
        })
        return result, layers, summary
    return result, {
        "queries_per_s": attempted / elapsed,
        "latency_p50_ms": 1000.0 * statistics.median(latencies),
        "latency_tail_ms": 1000.0 * tail,
        "ok_frac": (attempted - failed) / attempted,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss,
    }, summary
