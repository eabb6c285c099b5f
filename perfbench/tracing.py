"""Spans around calls into effectcompat's layers, for the traced run.

The traced run rebinds public names in the imported modules with wrappers
that record one span per call: its name, start, end, parent span and query
id.  Spans stay in memory and are written to a file when the run ends.  The
untraced run rebinds nothing, so the difference between the two runs is the
tracing overhead.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext

SETUP = "setup"


class Tracer:
    """Span recorder; single-threaded, as the benchmark has one caller."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.queries: list[object] = []
        self.query: object = SETUP
        # (span index, LpProblem, pivot count or None when the solve raised)
        self.lp_solves: list[tuple[int, object, int | None]] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.queries.append(self.query)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn, is_solve: bool):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self._close(idx)
                if is_solve:
                    self.lp_solves.append((idx, args[0], None))
                raise
            self._close(idx)
            if is_solve:
                self.lp_solves.append((idx, args[0], result.iterations))
            return result

        return traced

    def install(self, *targets: tuple[object, str, str]) -> None:
        """Rebind module.attr to a traced wrapper for each (module, attr, span name)."""
        for module, attr, name in targets:
            original = getattr(module, attr)
            self._undo.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, name == "lp.solve_lp"))

    def uninstall(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def durations(self) -> list[float]:
        return [end - start for start, end in zip(self.starts, self.ends)]

    def self_times(self) -> list[float]:
        """Span duration minus the time its child spans cover."""
        dur = self.durations()
        own = list(dur)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= dur[i]
        return own

    def write(self, path) -> None:
        doc = {
            "fields": ["name", "start_s", "end_s", "parent", "query"],
            "spans": [
                [n, s, e, p, q]
                for n, s, e, p, q in zip(self.names, self.starts, self.ends,
                                         self.parents, self.queries)
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def span(tracer: Tracer | None, name: str):
    """A span when tracing, otherwise nothing."""
    return tracer.span(name) if tracer is not None else nullcontext()


def tableau_shape(problem) -> tuple[int, int]:
    """Rows and columns of the dense tableau solve_lp builds for problem.

    Mirrors the solver's documented layout: a free variable takes two
    columns, a bounded one one column and a two-sided one an extra row;
    every <= row with nonnegative right-hand side gets a slack, every other
    row a surplus (>=) and an artificial.  Plus the cost row and the
    right-hand-side column.
    """
    cols = bound_rows = 0
    for lo, hi in problem.bounds:
        cols += 2 if lo is None and hi is None else 1
        if lo is not None and hi is not None:
            bound_rows += 1
    le, ge, eq = bound_rows, 0, 0
    for rel, b in zip(problem.relations, problem.rhs):
        if rel == "=":
            eq += 1
        elif (rel == "<=") == (b >= 0.0):
            le += 1
        else:
            ge += 1
    rows = problem.n_constraints + bound_rows
    return rows + 1, cols + le + 2 * ge + eq + 1


def phase1_share(tracer: Tracer, solve_lp, check_feasible, budget_s: float,
                 max_problems: int) -> float:
    """Share of solve_lp time spent in phase one, from a probe.

    Outside the traced timeline, times solve_lp and check_feasible (phase
    one alone) back to back on an evenly strided sample of the problems the
    queries solved, until the sample or the time budget is used up.  Phase
    two and the solution check are the remainder, so when phase one is
    nearly all of a solve, timing noise can make the remainder negative.
    """
    solves = [prob for idx, prob, piv in tracer.lp_solves
              if piv is not None and tracer.queries[idx] != SETUP]
    if not solves:
        return 0.0
    stride = max(1, len(solves) // max_problems)
    solve_s = phase1_s = 0.0
    deadline = time.perf_counter() + budget_s
    for i, prob in enumerate(solves[::stride]):
        # alternate the order, so that warm caches favour neither side
        for fn in (solve_lp, check_feasible) if i % 2 == 0 else (check_feasible, solve_lp):
            t0 = time.perf_counter()
            fn(prob)
            dt = time.perf_counter() - t0
            if fn is solve_lp:
                solve_s += dt
            else:
                phase1_s += dt
        if time.perf_counter() > deadline:
            break
    return phase1_s / solve_s


def layer_metrics(tracer: Tracer, n_queries: int, n_setups: int,
                  root_span: str) -> dict[str, float]:
    """Per-layer counts and times from the recorded spans.

    Set-up spans feed the models.* metrics, given per set-up; the other
    times and call counts cover the queries only and are given per query.
    root_span names the span around one query, against which
    lp.solve_lp.share is taken.
    """
    dur = tracer.durations()
    own = tracer.self_times()
    in_query = [q != SETUP for q in tracer.queries]

    def total(name, times=dur):
        return sum(t for t, n, q in zip(times, tracer.names, in_query) if q and n == name)

    def count(name):
        return sum(1 for n, q in zip(tracer.names, in_query) if q and n == name)

    loads = [i for i, n in enumerate(tracer.names) if n == "models.load_model" and not in_query[i]]
    load_set = set(loads)
    redundancy = sum(1 for i, n in enumerate(tracer.names)
                     if n == "lp.check_feasible" and tracer.parents[i] in load_set)
    per_query = 1.0 / max(1, n_queries)
    per_setup = 1.0 / max(1, n_setups)

    ok = [(idx, prob, piv) for idx, prob, piv in tracer.lp_solves
          if piv is not None and in_query[idx]]
    pivots = sum(piv for _, _, piv in ok)
    shapes = [tableau_shape(prob) for _, prob, _ in ok]
    solve_s = total("lp.solve_lp")
    query_s = total(root_span)
    return {
        "models.load_model.s": sum(dur[i] for i in loads) * per_setup,
        "models.redundancy_lps": redundancy * per_setup,
        "core.effect_from_affine.calls": count("core.effect_from_affine") * per_query,
        "core.effect_from_affine.s": total("core.effect_from_affine") * per_query,
        "compat.lambda_lps_per_query": count("compat.compute_lambda0") * per_query,
        "compat.compute_lambda0.self_s": total("compat.compute_lambda0", own) * per_query,
        "compat.noise.self_s": total("compat.noise", own) * per_query,
        "lp.solve_lp.calls": count("lp.solve_lp") * per_query,
        "lp.solve_lp.s": solve_s * per_query,
        "lp.solve_lp.share": solve_s / query_s if query_s > 0.0 else 0.0,
        "lp.check_feasible.calls": count("lp.check_feasible") * per_query,
        "lp.check_feasible.s": total("lp.check_feasible") * per_query,
        "lp.pivots_per_solve": pivots / len(ok) if ok else 0.0,
        "lp.us_per_pivot": 1e6 * solve_s / pivots if pivots else 0.0,
        "lp.problem_rows": (sum(p.n_constraints for _, p, _ in ok) / len(ok)) if ok else 0.0,
        "lp.problem_cols": (sum(p.n_variables for _, p, _ in ok) / len(ok)) if ok else 0.0,
        "lp.tableau_mb_computed": max((r * c * 8 / 1e6 for r, c in shapes), default=0.0),
        "lp.pivot_gflop_computed": sum(
            2.0 * r * c * piv for (r, c), (_, _, piv) in zip(shapes, ok)) / 1e9 * per_query,
        "lp.failures": sum(1 for idx, _, piv in tracer.lp_solves
                           if piv is None and in_query[idx]),
        "trace.spans": len(tracer.names),
    }
