"""Benchmark of effectcompat, measured from the outside through its public API.

Run from the root of a checkout:

    python3 perfbench/run.py --workload lambda-k128 --seed 1 --seconds 50 --trace 0

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: every end-to-end metric of BENCHMARK.json
with --trace 0, every per-layer metric with --trace 1.  Failed queries are
logged on standard error with their model, problem shape, seed and query
index.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# One BLAS thread, here and in the CLI processes the benchmark starts: the
# benchmark has one caller, and on a machine with few cores an idle BLAS
# thread competes with it.
THREAD_LIMITS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "effectcompat" / "__init__.py").is_file() or not spec_path.is_file():
        sys.stderr.write("error: run from the root of an effectcompat checkout "
                         "(src/effectcompat and BENCHMARK.json not found)\n")
        return 2
    if args.seconds <= 0:
        sys.stderr.write("error: --seconds must be positive\n")
        return 2
    for var in THREAD_LIMITS:  # before numpy is imported
        os.environ[var] = "1"
    # The program is built from this checkout's source, never from an installed copy.
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from perfbench import workloads

    if args.workload not in workloads.NAMES:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; "
                         f"choose one of {', '.join(workloads.NAMES)}\n")
        return 2

    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    result, values, summary = workloads.run(
        args.workload, args.seed, args.seconds, bool(args.trace), root)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        sys.stderr.write(f"error: metrics not measured: {', '.join(missing)}\n")
        return 1
    result["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                         for m in wanted}
    for line in summary:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
