"""Command-line surface: check pairs, build joint observables, scan noise.

Exit codes: 0 compatible / success, 1 input error, 2 solver error,
3 incompatible pair.  --json output is byte-stable across runs: keys keep
insertion order and every float is rounded to 12 significant digits.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .compat import (
    IncompatibilityError,
    compute_lambda0,
    depolarizing_kernel,
    joint_observable,
    scaling_kernel,
    smear,
)
from .core import (
    Effect,
    dichotomic_observable,
    observable_diagnostics,
)
from .lp import SolverFailure
from .models import load_model, save_model, zoo_model, zoo_names
from .oracle import cross_check
from .tolerances import SolverTolerances

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_SOLVER = 2
EXIT_INCOMPATIBLE = 3

JSON_SCHEMA_VERSION = 1


class InputError(ValueError):
    """User-facing input problem (bad names, paths, ranges)."""


def _fmt(x: float) -> float:
    """Round to 12 significant digits for stable report output."""
    y = float(f"{float(x):.12g}")
    return 0.0 if y == 0.0 else y


def _fmt_str(x: float) -> str:
    return "0" if float(x) == 0.0 else f"{float(x):.12g}"


def _vector(values) -> list[float]:
    return [_fmt(v) for v in values]


def _resolve_model(arg: str, tol: SolverTolerances):
    """A model argument is a file path or a built-in name; files win."""
    path = Path(arg)
    if path.exists():
        space, effects = load_model(path, tol)
        return space, effects, space.name or path.stem
    if arg in zoo_names():
        space, effects = zoo_model(arg)
        return space, effects, arg
    raise InputError(
        f"model {arg!r} is neither a readable file nor a built-in "
        f"({', '.join(zoo_names())})"
    )


def _pick_effect(effects: dict[str, Effect], name: str) -> Effect:
    try:
        return effects[name]
    except KeyError:
        raise InputError(
            f"no effect named {name!r} in this model; available: "
            f"{', '.join(sorted(effects))}"
        ) from None


def _tolerances(args) -> SolverTolerances:
    return SolverTolerances(eps_feas=args.eps_feas, eps_compat=args.eps_compat)


def _print(text: str, out=None) -> None:
    (out or sys.stdout).write(text + "\n")


def cmd_check(args) -> int:
    tol = _tolerances(args)
    space, effects, label = _resolve_model(args.model, tol)
    e = _pick_effect(effects, args.effect_e)
    f = _pick_effect(effects, args.effect_f)
    report = compute_lambda0(space, e, f, tol)
    witness_values = report.witness.vertex_values(space)
    if args.json:
        payload = {
            "schema_version": JSON_SCHEMA_VERSION,
            "model": label,
            "dimension": space.dimension,
            "n_vertices": space.n_vertices,
            "effect_e": args.effect_e,
            "effect_f": args.effect_f,
            "lambda0": _fmt(report.lambda0),
            "sigma0": _fmt(report.sigma0),
            "compatible": report.compatible,
            "witness": {
                "coefficients": _vector(report.witness.coefficients),
                "vertex_values": _vector(witness_values),
            },
            "lp_iterations": report.lp_iterations,
            "tolerances": {
                "eps_feas": _fmt(tol.eps_feas),
                "eps_opt": _fmt(tol.eps_opt),
                "eps_geom": _fmt(tol.eps_geom),
                "eps_compat": _fmt(tol.eps_compat),
            },
        }
        _print(json.dumps(payload, indent=2))
    else:
        _print(f"model: {label} (dimension {space.dimension}, {space.n_vertices} vertices)")
        _print(f"pair: {args.effect_e} vs {args.effect_f}")
        _print(f"lambda0: {_fmt_str(report.lambda0)}")
        _print(f"sigma0: {_fmt_str(report.sigma0)}")
        _print(f"compatible: {'yes' if report.compatible else 'no'}")
        _print("witness coefficients: "
               + " ".join(_fmt_str(c) for c in report.witness.coefficients))
        _print("witness vertex values: "
               + " ".join(_fmt_str(v) for v in witness_values))
        _print(f"lp iterations: {report.lp_iterations}")
    return EXIT_OK if report.compatible else EXIT_INCOMPATIBLE


def cmd_joint(args) -> int:
    tol = _tolerances(args)
    space, effects, label = _resolve_model(args.model, tol)
    e = _pick_effect(effects, args.effect_e)
    f = _pick_effect(effects, args.effect_f)
    try:
        obs, report = joint_observable(space, e, f, tol)
    except IncompatibilityError as exc:
        sys.stderr.write(f"error: no joint observable: {exc}\n")
        return EXIT_INCOMPATIBLE
    sum_coeffs = sum(comp.coefficients for comp in obs.effects)
    unit_dev = max(abs(sum_coeffs[0] - 1.0), max(abs(sum_coeffs[1:]), default=0.0))
    margin_e = max(abs(obs.effects[0].coefficients + obs.effects[1].coefficients - e.coefficients))
    margin_f = max(abs(obs.effects[0].coefficients + obs.effects[2].coefficients - f.coefficients))
    valid = not observable_diagnostics(obs, space, tol)
    if args.json:
        payload = {
            "schema_version": JSON_SCHEMA_VERSION,
            "model": label,
            "effect_e": args.effect_e,
            "effect_f": args.effect_f,
            "lambda0": _fmt(report.lambda0),
            "components": [
                {
                    "outcome": list(outcome),
                    "coefficients": _vector(comp.coefficients),
                    "vertex_values": _vector(comp.vertex_values(space)),
                }
                for outcome, comp in zip(obs.outcomes, obs.effects)
            ],
            "margin_e_deviation": _fmt(margin_e),
            "margin_f_deviation": _fmt(margin_f),
            "unit_sum_deviation": _fmt(unit_dev),
            "observable_valid": valid,
        }
        _print(json.dumps(payload, indent=2))
    else:
        _print(f"model: {label} (dimension {space.dimension}, {space.n_vertices} vertices)")
        _print(f"pair: {args.effect_e} vs {args.effect_f} (lambda0 = {_fmt_str(report.lambda0)})")
        for outcome, comp in zip(obs.outcomes, obs.effects):
            _print(
                f"outcome {outcome}: coefficients "
                + " ".join(_fmt_str(c) for c in comp.coefficients)
                + " | vertex values "
                + " ".join(_fmt_str(v) for v in comp.vertex_values(space))
            )
        _print("margin checks:")
        _print(f"  components sum to unit within {_fmt_str(unit_dev)}")
        _print(f"  margin reproduces e within {_fmt_str(margin_e)}")
        _print(f"  margin reproduces f within {_fmt_str(margin_f)}")
        _print(f"observable valid: {'yes' if valid else 'no'}")
    return EXIT_OK if valid else EXIT_SOLVER


def _parse_range(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise InputError(f"--param-range wants a:b:steps, got {text!r}")
    try:
        a, b, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise InputError(f"--param-range wants numbers a:b:steps, got {text!r}") from None
    if not (math.isfinite(a) and math.isfinite(b)):
        raise InputError(f"--param-range needs finite ends, got {text!r}")
    if steps < 1:
        raise InputError(f"--param-range needs at least one step, got {steps}")
    if b < a:
        raise InputError(f"--param-range needs a <= b, got {text!r}")
    return a, b, steps


def _scan_params(a: float, b: float, steps: int) -> list[float]:
    if steps == 1:
        return [a]
    return [a + i * (b - a) / (steps - 1) for i in range(steps)]


def _boundary_comment(params: list[float], flags: list[bool]) -> str:
    flips = [i for i in range(1, len(flags)) if flags[i] != flags[i - 1]]
    if not flips:
        return ("# boundary: none (all rows compatible)" if flags[0]
                else "# boundary: none (no row compatible)")
    if len(flips) == 1:
        i = flips[0]
        if flags[i]:
            return f"# boundary: compatible from param = {_fmt_str(params[i])}"
        return f"# boundary: compatible up to param = {_fmt_str(params[i - 1])}"
    return f"# boundary: non-monotone ({len(flips)} flips)"


def cmd_scan(args) -> int:
    tol = _tolerances(args)
    space, effects, _ = _resolve_model(args.model, tol)
    e = _pick_effect(effects, args.effect_e)
    f = _pick_effect(effects, args.effect_f)
    a, b, steps = _parse_range(args.param_range)
    if args.kernel == "scaling":
        if a < 1.0:
            raise InputError(f"scaling scan needs params >= 1, got start {a}")
        make_kernel = scaling_kernel
    else:
        if a < 0.0 or b > 1.0:
            raise InputError(f"depolarizing scan needs params in [0, 1], got {a}:{b}")
        make_kernel = depolarizing_kernel
    obs_e = dichotomic_observable(e)
    obs_f = dichotomic_observable(f)
    params = _scan_params(a, b, steps)
    lines = ["param,lambda0,sigma0,compatible"]
    flags: list[bool] = []
    for param in params:
        kernel = make_kernel(param)
        smeared_e = smear(obs_e, kernel).effects[0]
        smeared_f = smear(obs_f, kernel).effects[0]
        report = compute_lambda0(space, smeared_e, smeared_f, tol)
        flags.append(report.compatible)
        lines.append(
            f"{_fmt_str(param)},{_fmt_str(report.lambda0)},"
            f"{_fmt_str(report.sigma0)},{'true' if report.compatible else 'false'}"
        )
    lines.append(_boundary_comment(params, flags))
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_zoo(args) -> int:
    if args.zoo_command == "list":
        for name in zoo_names():
            space, effects = zoo_model(name)
            _print(
                f"{name}  d={space.dimension}  {space.n_vertices} vertices  "
                f"effects: {', '.join(effects)}"
            )
        return EXIT_OK
    # dump
    try:
        space, effects = zoo_model(args.name)
    except KeyError as exc:
        raise InputError(str(exc)) from None
    out = args.out or f"{args.name}.json"
    save_model(out, space, effects)
    _print(f"wrote {out}", out=sys.stderr)
    return EXIT_OK


def cmd_oracle(args) -> int:
    tol = _tolerances(args)
    space, effects, label = _resolve_model(args.model, tol)
    e = _pick_effect(effects, args.effect_e)
    f = _pick_effect(effects, args.effect_f)
    result = cross_check(space, e, f, tol, resolution=args.resolution)
    if args.json:
        payload = {
            "schema_version": JSON_SCHEMA_VERSION,
            "model": label,
            "lp_lambda0": _fmt(result.lp_lambda0),
            "closed_form": None if result.closed_form is None else _fmt(result.closed_form),
            "grid_value": _fmt(result.grid.value),
            "grid_lower_bound": _fmt(result.grid.lower_bound),
            "grid_step_bound": _fmt(result.grid.step_bound),
            "grid_box": [_fmt(result.grid.box[0]), _fmt(result.grid.box[1])],
            "grid_box_expanded": result.grid.box_expanded,
            "discrepancies": list(result.discrepancies),
        }
        _print(json.dumps(payload, indent=2))
    else:
        _print(f"lp lambda0: {_fmt_str(result.lp_lambda0)}")
        if result.closed_form is not None:
            _print(f"simplex closed form: {_fmt_str(result.closed_form)}")
        _print(
            f"grid: value {_fmt_str(result.grid.value)}, lower bound "
            f"{_fmt_str(result.grid.lower_bound)}, step {_fmt_str(result.grid.step_bound)}"
        )
        for issue in result.discrepancies:
            _print(f"discrepancy: {issue}")
        _print(f"verdict: {'ok' if result.ok else 'DISCREPANT'}")
    return EXIT_OK if result.ok else EXIT_SOLVER


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--eps-feas", type=float, default=1e-9,
                        help="LP feasibility tolerance (default 1e-9)")
    parser.add_argument("--eps-compat", type=float, default=1e-7,
                        help="slack when comparing lambda0 against 1 (default 1e-7)")


def _add_pair_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("model", help="model file path or built-in model name")
    parser.add_argument("effect_e", help="name of the first effect")
    parser.add_argument("effect_f", help="name of the second effect")
    _add_common(parser)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="effectcompat",
        description="Joint measurability of two-outcome measurements on "
                    "polytopic state spaces.",
    )
    sub = parser.add_subparsers(dest="command", metavar="{check,joint,scan,zoo}")
    sub.required = True

    p_check = sub.add_parser("check", help="decide compatibility of an effect pair")
    _add_pair_arguments(p_check)
    p_check.add_argument("--json", action="store_true", help="machine-readable output")
    p_check.set_defaults(func=cmd_check)

    p_joint = sub.add_parser("joint", help="construct the joint observable of a compatible pair")
    _add_pair_arguments(p_joint)
    p_joint.add_argument("--json", action="store_true", help="machine-readable output")
    p_joint.set_defaults(func=cmd_joint)

    p_scan = sub.add_parser("scan", help="sweep a noise parameter and tabulate lambda0")
    _add_pair_arguments(p_scan)
    p_scan.add_argument("--kernel", choices=("scaling", "depolarizing"), required=True)
    p_scan.add_argument("--param-range", required=True, metavar="a:b:steps")
    p_scan.add_argument("--out", help="CSV output path (default: stdout)")
    p_scan.set_defaults(func=cmd_scan)

    p_zoo = sub.add_parser("zoo", help="list built-in models or dump one to a file")
    zoo_sub = p_zoo.add_subparsers(dest="zoo_command", metavar="{list,dump}")
    zoo_sub.required = True
    zoo_sub.add_parser("list", help="list built-in models")
    p_dump = zoo_sub.add_parser("dump", help="write a built-in model to a model file")
    p_dump.add_argument("name")
    p_dump.add_argument("--out", help="output path (default: <name>.json)")
    p_zoo.set_defaults(func=cmd_zoo)

    # CI helper, hidden from the subcommand listing
    p_oracle = sub.add_parser("oracle")
    _add_pair_arguments(p_oracle)
    p_oracle.add_argument("--resolution", type=int, default=51)
    p_oracle.add_argument("--json", action="store_true")
    p_oracle.set_defaults(func=cmd_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except SolverFailure as exc:
        sys.stderr.write(f"solver error: {exc}\n")
        return EXIT_SOLVER
    except (ValueError, KeyError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
