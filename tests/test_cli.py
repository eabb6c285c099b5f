import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from effectcompat import compat
from effectcompat.cli import (
    MAX_SCAN_STEPS,
    InputError,
    _boundary_comment,
    _parse_range,
    main,
)
from effectcompat.core import effect_from_affine
from effectcompat.lp import SolverFailure
from effectcompat.models import gbit_square, save_model


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# Golden stdout bytes and exit codes of the benchmark's fixed CLI commands.
# They pin lp_iterations and the noise-level witness digits, so a change to
# the solver's pivot sequence fails here as well as in the benchmark.
CLI_GOLDENS = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "cli_goldens.json")
    .read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(CLI_GOLDENS))
def test_benchmark_cli_goldens(name, capsys):
    golden = CLI_GOLDENS[name]
    code, out, _ = run(list(golden["argv"]), capsys)
    assert code == golden["exit"]
    assert out == golden["stdout"]


def _src_env() -> dict:
    """The environment with this checkout's src first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_cli_import_loads_no_new_module():
    # The cli-process benchmark is mostly interpreter start and imports: over
    # what numpy loads, importing the CLI adds the package and these modules.
    known = {"__future__", "_json", "argparse", "copy", "dataclasses", "effectcompat",
             "gettext", "json"}
    code = ("import sys, numpy; before = set(sys.modules); import effectcompat.cli; "
            "print(*sorted({m.split('.')[0] for m in set(sys.modules) - before}))")
    loaded = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True,
                            text=True, check=True, timeout=60).stdout.split()
    assert "effectcompat" in loaded and "scipy" not in loaded
    assert not set(loaded) - known


def test_console_main_exits_with_the_command_code(monkeypatch, capsys):
    from effectcompat.cli import console_main

    monkeypatch.setattr(sys, "argv", ["effectcompat", "check", "no-such-model", "a", "b"])
    with pytest.raises(SystemExit) as stop:
        console_main()
    assert stop.value.code == 1
    assert "no-such-model" in capsys.readouterr().err


@pytest.mark.parametrize("argv, error", [
    (["check", "gbit"], "effectcompat check: error: the following arguments are required: "
                        "effect_e, effect_f"),
    (["check", "gbit", "e_x", "e_y", "--eps-feas", "abc"],
     "effectcompat check: error: argument --eps-feas: invalid float value: 'abc'"),
    (["scan", "gbit", "e_x", "e_y", "--kernel", "foo", "--param-range", "0:1:2"],
     "effectcompat scan: error: argument --kernel: invalid choice: 'foo'"),
    (["frob"], "effectcompat: error: argument {check,joint,scan,zoo}: invalid choice: 'frob'"),
    # the oracle is effectcompat.oracle.cross_check, which the CLI never loads
    (["oracle", "gbit", "e_x", "e_y"],
     "effectcompat: error: argument {check,joint,scan,zoo}: invalid choice: 'oracle'"),
], ids=["missing-arguments", "not-a-float", "unknown-kernel", "unknown-command", "oracle"])
def test_a_usage_error_exits_as_an_input_error(argv, error, capsys):
    # 1, the input-error code: argparse's own 2 is the solver-error code here
    code, out, err = run(argv, capsys)
    assert (code, out) == (1, "")
    assert err.startswith("usage: effectcompat")
    assert err.splitlines()[-1].startswith(error)


def test_an_unknown_command_lists_exactly_the_four_commands(capsys):
    code, out, err = run(["frob"], capsys)
    assert (code, out) == (1, "")
    # some Python versions quote the choices, others do not
    choices = err.rstrip().rpartition("(choose from ")[2].rstrip(")")
    assert choices.replace("'", "").split(", ") == ["check", "joint", "scan", "zoo"]


def test_help_exits_0(capsys):
    code, out, err = run(["--help"], capsys)
    assert (code, err) == (0, "")
    assert out.startswith("usage: effectcompat")


def test_a_usage_error_through_the_module_entry_point_exits_1():
    done = subprocess.run([sys.executable, "-m", "effectcompat.cli", "check", "gbit"],
                          env=_src_env(), capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (1, "")
    assert "error: the following arguments are required: effect_e, effect_f" in done.stderr


class TestCheck:
    def test_sharp_gbit_pair(self, capsys):
        code, out, _ = run(["check", "gbit", "e_x", "e_y"], capsys)
        assert code == 3
        assert "lambda0: 2" in out
        assert "sigma0: 1" in out
        assert "compatible: no" in out

    def test_simplex_pair_compatible(self, capsys):
        code, out, _ = run(["check", "simplex-3", "a", "b"], capsys)
        assert code == 0
        assert "lambda0: 0.9" in out
        assert "compatible: yes" in out

    def test_json_payload(self, capsys):
        code, out, _ = run(["check", "gbit", "e_x", "e_y", "--json"], capsys)
        assert code == 3
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        assert payload["lambda0"] == 2.0
        assert payload["sigma0"] == 1.0
        assert payload["compatible"] is False
        assert payload["witness"]["vertex_values"] == [0.0, 0.0, 0.0, 0.0]

    def test_json_is_byte_identical(self, capsys):
        _, first, _ = run(["check", "gbit", "e_x", "e_y", "--json"], capsys)
        _, second, _ = run(["check", "gbit", "e_x", "e_y", "--json"], capsys)
        assert first == second

    def test_missing_effect_name(self, capsys):
        code, _, err = run(["check", "gbit", "e_x", "nope"], capsys)
        assert code == 1
        assert "nope" in err

    def test_solver_failure_exits_2_naming_the_lp(self, monkeypatch, capsys):
        def fail(problem, tol):
            raise SolverFailure("problem is unbounded: no row limits entering column 3")

        monkeypatch.setattr(compat, "solve_lp", fail)
        code, out, err = run(["check", "polygon-5", "x1", "x2"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("solver error: StateSpace('polygon-5', d=2, vertices=5): "
                              "the witness dual for lambda0 failed: problem is unbounded")

    def test_unknown_model(self, capsys):
        code, _, err = run(["check", "moebius", "e", "f"], capsys)
        assert code == 1
        assert "moebius" in err

    @pytest.mark.parametrize("flag, field", [("--eps-compat", "eps_compat"),
                                             ("--eps-feas", "eps_feas")])
    def test_infinite_tolerance_is_an_input_error(self, flag, field, capsys):
        # An infinite eps_compat called the sharp pair (lambda0 = 2)
        # compatible, and an infinite eps_feas passed every phase-one check.
        code, out, err = run(["check", "gbit", "e_x", "e_y", flag, "inf"], capsys)
        assert code == 1
        assert out == ""
        assert f"{field} must be finite, got inf" in err

    def test_compat_tolerance_below_its_floor_names_the_flag(self, capsys):
        code, out, err = run(["check", "gbit", "e_x", "e_y", "--eps-compat", "1e-12"], capsys)
        assert (code, out) == (1, "")
        assert err == ("error: --eps-compat must be at least 1e-09 "
                       "(the fixed LP optimality slack), got 1e-12\n")

    def test_loose_compat_tolerance_flips_verdict(self, capsys):
        code, out, _ = run(
            ["check", "gbit", "e_x", "e_y", "--eps-compat", "1.5"], capsys
        )
        assert code == 0
        assert "compatible: yes" in out


class TestJoint:
    def test_compatible_pair(self, capsys):
        code, out, _ = run(["joint", "simplex-3", "a", "b"], capsys)
        assert code == 0
        assert out.count("outcome (") == 4
        assert "observable valid: yes" in out

    def test_incompatible_pair_cites_lambda0(self, capsys):
        code, _, err = run(["joint", "gbit", "e_x", "e_y"], capsys)
        assert code == 3
        assert "lambda0 = 2" in err

    def test_pair_compatible_only_within_eps_compat(self, tmp_path, capsys):
        # lambda0 = 1 + 5e-8: check says compatible, but no witness exists at
        # lambda = 1, so joint reports it as incompatible, naming eps_compat.
        space = gbit_square()
        c = (1.0 + 5e-8) / 4.0  # e_x and e_y scaled by (1 + 5e-8)/2
        e = effect_from_affine(space, [c, c, 0.0])
        f = effect_from_affine(space, [c, 0.0, c])
        path = tmp_path / "boundary.json"
        save_model(path, space, {"e": e, "f": f})
        code, out, _ = run(["check", str(path), "e", "f"], capsys)
        assert code == 0 and "compatible: yes" in out
        code, _, err = run(["joint", str(path), "e", "f"], capsys)
        assert code == 3
        assert "eps_compat" in err and "lambda0 = 1.00000005" in err

    def test_complement_pair_components(self, tmp_path, capsys):
        # For e sharp on the square the witness is forced to zero, so the
        # components come out exactly {0, e, u-e, 0}.
        space = gbit_square()
        e = effect_from_affine(space, [0.5, 0.5, 0.0])
        ec = effect_from_affine(space, [0.5, -0.5, 0.0])
        path = tmp_path / "pair.json"
        save_model(path, space, {"e": e, "ec": ec})
        code, out, _ = run(["joint", str(path), "e", "ec", "--json"], capsys)
        assert code == 0
        payload = json.loads(out)
        values = [comp["vertex_values"] for comp in payload["components"]]
        assert values[0] == [0.0, 0.0, 0.0, 0.0]
        assert values[1] == [1.0, 1.0, 0.0, 0.0]
        assert values[2] == [0.0, 0.0, 1.0, 1.0]
        assert values[3] == [0.0, 0.0, 0.0, 0.0]
        assert payload["observable_valid"] is True


class TestScan:
    def test_scaling_scan_flips_at_two(self, tmp_path, capsys):
        out_path = tmp_path / "scan.csv"
        code, _, _ = run(
            ["scan", "gbit", "e_x", "e_y", "--kernel", "scaling",
             "--param-range", "1:2:11", "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "param,lambda0,sigma0,compatible"
        rows = [ln.split(",") for ln in lines[1:] if not ln.startswith("#")]
        assert len(rows) == 11
        flags = [row[3] == "true" for row in rows]
        assert flags == [False] * 10 + [True]
        assert rows[-1][0] == "2"
        assert lines[-1] == "# boundary: compatible from param = 2"

    def test_scaling_scan_is_byte_identical(self, tmp_path, capsys):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            run(
                ["scan", "gbit", "e_x", "e_y", "--kernel", "scaling",
                 "--param-range", "1:2:11", "--out", str(p)],
                capsys,
            )
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_depolarizing_scan_flips_after_half(self, capsys):
        code, out, _ = run(
            ["scan", "gbit", "e_x", "e_y", "--kernel", "depolarizing",
             "--param-range", "0:1:11"],
            capsys,
        )
        assert code == 0
        lines = out.splitlines()
        rows = [ln.split(",") for ln in lines[1:] if not ln.startswith("#")]
        flags = [row[3] == "true" for row in rows]
        assert flags == [True] * 6 + [False] * 5  # compatible up to t = 0.5
        assert lines[-1] == "# boundary: compatible up to param = 0.5"

    def test_compatible_pair_scan_has_no_boundary(self, capsys):
        code, out, _ = run(
            ["scan", "simplex-3", "a", "b", "--kernel", "scaling",
             "--param-range", "1:2:5"],
            capsys,
        )
        assert code == 0
        assert "# boundary: none (all rows compatible)" in out

    def test_lambda0_column_tracks_scaling(self, capsys):
        _, out, _ = run(
            ["scan", "gbit", "e_x", "e_y", "--kernel", "scaling",
             "--param-range", "1:2:3"],
            capsys,
        )
        rows = [ln.split(",") for ln in out.splitlines()[1:] if not ln.startswith("#")]
        for row in rows:
            k, lam = float(row[0]), float(row[1])
            assert lam == pytest.approx(2.0 / k, abs=1e-9)

    def test_bad_range_rejected(self, capsys):
        code, _, err = run(
            ["scan", "gbit", "e_x", "e_y", "--kernel", "scaling",
             "--param-range", "1:2"],
            capsys,
        )
        assert code == 1
        assert "a:b:steps" in err

    @pytest.mark.parametrize("param_range", ["1:inf:3", "nan:2:3", "1:nan:3", "-inf:0:2"])
    def test_non_finite_range_end_rejected(self, capsys, param_range):
        kernel = "depolarizing" if param_range.startswith("-") else "scaling"
        code, out, err = run(
            ["scan", "gbit", "e_x", "e_y", "--kernel", kernel, f"--param-range={param_range}"],
            capsys,
        )
        assert (code, out) == (1, "")
        assert f"finite ends, got {param_range!r}" in err

    def test_huge_step_count_rejected_before_any_row(self, capsys):
        code, out, err = run(
            ["scan", "gbit", "e_x", "e_y", "--kernel", "scaling",
             "--param-range", f"1:2:{10**12}"],
            capsys,
        )
        assert (code, out) == (1, "")
        assert f"at most {MAX_SCAN_STEPS} steps, got {10**12}" in err

    @pytest.mark.parametrize("param_range, fragment", [
        ("1:x:3", "wants numbers a:b:steps, got '1:x:3'"),
        ("1:2:0", "needs at least one step, got 0"),
        ("2:1:3", "needs a <= b, got '2:1:3'"),
    ])
    def test_malformed_range_rejected_before_any_row(self, capsys, param_range, fragment):
        code, out, err = run(
            ["scan", "gbit", "e_x", "e_y", "--kernel", "scaling",
             "--param-range", param_range],
            capsys,
        )
        assert (code, out) == (1, "")
        assert err == f"error: --param-range {fragment}\n"

    def test_last_row_ends_at_the_range_end(self, capsys):
        # 0.08 + 5 * 0.92 / 5 rounds to 1.0000000000000002, past the
        # depolarizing kernel's range; each row is clamped to the end.
        assert 0.08 + 5 * (1.0 - 0.08) / 5 > 1.0
        code, out, err = run(
            ["scan", "hypercube-3", "x1", "x2", "--kernel", "depolarizing",
             "--param-range", "0.08:1:6"],
            capsys,
        )
        assert (code, err) == (0, "")
        rows = [ln.split(",") for ln in out.splitlines()[1:] if not ln.startswith("#")]
        assert len(rows) == 6 and rows[-1][0] == "1"

    def test_one_step_scan_prints_one_row(self, capsys):
        code, out, _ = run(
            ["scan", "gbit", "e_x", "e_y", "--kernel", "scaling",
             "--param-range", "1.5:2:1"],
            capsys,
        )
        assert code == 0
        rows = [ln.split(",") for ln in out.splitlines()[1:] if not ln.startswith("#")]
        assert len(rows) == 1 and rows[0][0] == "1.5"

    def test_two_flips_are_non_monotone(self):
        assert (_boundary_comment([0.0, 0.5, 1.0], [True, False, True])
                == "# boundary: non-monotone (2 flips)")

    def test_step_limit_is_inclusive(self):
        assert _parse_range(f"0:1:{MAX_SCAN_STEPS}") == (0.0, 1.0, MAX_SCAN_STEPS)
        with pytest.raises(InputError, match="at most"):
            _parse_range(f"0:1:{MAX_SCAN_STEPS + 1}")

    def test_scaling_needs_params_at_least_one(self, capsys):
        code, _, err = run(
            ["scan", "gbit", "e_x", "e_y", "--kernel", "scaling",
             "--param-range", "0.5:2:4"],
            capsys,
        )
        assert code == 1
        assert ">= 1" in err

    def test_depolarizing_needs_unit_interval(self, capsys):
        code, _, _ = run(
            ["scan", "gbit", "e_x", "e_y", "--kernel", "depolarizing",
             "--param-range", "0:2:5"],
            capsys,
        )
        assert code == 1


class TestZoo:
    def test_list_contains_required_models(self, capsys):
        code, out, _ = run(["zoo", "list"], capsys)
        assert code == 0
        for name in ("simplex-2", "simplex-3", "gbit", "hypercube-3", "polygon-5"):
            assert name in out

    def test_dump_and_recheck_round_trip(self, tmp_path, capsys):
        path = tmp_path / "gbit.json"
        code, _, _ = run(["zoo", "dump", "gbit", "--out", str(path)], capsys)
        assert code == 0
        code, out, _ = run(["check", str(path), "e_x", "e_y"], capsys)
        assert code == 3
        assert "lambda0: 2" in out

    def test_dump_unknown_model(self, capsys):
        code, _, err = run(["zoo", "dump", "escher"], capsys)
        assert code == 1
        assert "escher" in err
