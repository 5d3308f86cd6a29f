"""Command line behavior: model files, reports, exit codes, golden outputs.

Run this module directly to regenerate the golden reports after an
intentional change: ``python tests/test_cli.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import parser_oracle
from ksym import cli, expr
from ksym.cli import (
    MAX_ARRAY_VALUES,
    ModelFileError,
    bundled_model_names,
    load_model,
    main,
    resolve_model_path,
)

GOLDEN_DIR = Path(__file__).parent / "golden"

# (golden name, argv without --format, expected exit code)
GOLDEN_CASES = [
    ("list_models", ["list-models"], 0),
    (
        "nahm_pseudosymmetry",
        ["check", "pseudosymmetry", "--model", "nahm", "--field", "radial", "--against", "X"],
        0,
    ),
    ("nahm_symmetry_fail", ["check", "symmetry", "--model", "nahm", "--field", "radial"], 1),
    ("free_particle_symmetry", ["check", "symmetry", "--model", "free_particle", "--field", "ddx"], 0),
    ("free_particle_momenta", ["verify", "law", "--model", "free_particle", "--law", "momenta"], 0),
    (
        "free_particle_bracket",
        ["build", "bracket-law", "--model", "free_particle", "--s", "delta", "--field", "ddx"],
        0,
    ),
    (
        "free_particle_divergence",
        [
            "verify", "divergence", "--model", "free_particle", "--law", "momenta",
            "--origin", "0,1,2", "--T", "0.5", "--h", "0.0078125",
        ],
        0,
    ),
    (
        "free_particle_scaling_pseudo",
        [
            "check", "pseudosymmetry", "--model", "free_particle",
            "--field", "delta", "--against", "ddx,ddx",
        ],
        0,
    ),
    (
        "string_wave_flux",
        ["verify", "law", "--model", "vibrating_string", "--law", "wave_flux", "--against", "xi1,xi2"],
        0,
    ),
    (
        "string_evolution",
        ["verify", "evolution", "--model", "vibrating_string", "--against", "xi1,xi2"],
        0,
    ),
    (
        "string_energy_tuple_fail",
        ["verify", "law", "--model", "vibrating_string", "--law", "energy_tuple", "--against", "xi1,xi2"],
        1,
    ),
    ("string_noether", ["build", "noether", "--model", "vibrating_string", "--field", "ddx"], 0),
    ("string_solve", ["solve", "evolution", "--model", "vibrating_string", "--at", "0,1,1"], 0),
    (
        "string_section",
        [
            "integrate", "section", "--model", "vibrating_string", "--against", "xi1,xi2",
            "--origin", "0,0.4,0.3", "--T", "0.25", "--h", "0.015625",
        ],
        0,
    ),
    ("string_regularity", ["check", "regularity", "--model", "vibrating_string"], 0),
    ("minimal_surface_noether", ["build", "noether", "--model", "minimal_surface", "--field", "ddx"], 0),
    ("navier_regularity", ["check", "regularity", "--model", "navier"], 0),
    ("navier_noether", ["build", "noether", "--model", "navier", "--field", "dd12"], 0),
    ("laplace3_noether", ["build", "noether", "--model", "laplace3", "--field", "ddx"], 0),
    ("oscillator_noether", ["build", "noether", "--model", "oscillator_k1", "--field", "rotation"], 0),
    ("oscillator_energy", ["verify", "law", "--model", "oscillator_k1", "--law", "energy"], 0),
    ("oscillator_solve", ["solve", "evolution", "--model", "oscillator_k1", "--at", "0.3,0.7"], 0),
]


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out


def assert_structurally_equal(actual, expected, path="$"):
    """Same tree shape, strings equal, floats close; elapsed_ms is timing."""
    if isinstance(expected, dict):
        assert isinstance(actual, dict), path
        assert set(actual) == set(expected), path
        for key, value in expected.items():
            if key == "elapsed_ms":
                continue
            assert_structurally_equal(actual[key], value, f"{path}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list), path
        assert len(actual) == len(expected), path
        for i, value in enumerate(expected):
            assert_structurally_equal(actual[i], value, f"{path}[{i}]")
    elif isinstance(expected, float) and not isinstance(expected, bool):
        assert isinstance(actual, (int, float)), path
        assert math.isclose(actual, expected, rel_tol=1e-9, abs_tol=1e-12), (
            f"{path}: {actual!r} != {expected!r}"
        )
    else:
        assert actual == expected, f"{path}: {actual!r} != {expected!r}"


# ---------------------------------------------------------------------------
# golden reports
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name,argv,expected_exit", GOLDEN_CASES, ids=[case[0] for case in GOLDEN_CASES]
)
def test_golden_report(name, argv, expected_exit, capsys):
    code, out = run_cli(argv + ["--format", "json"], capsys)
    assert code == expected_exit
    actual = json.loads(out)
    expected = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    assert_structurally_equal(actual, expected)


def test_reports_are_reproducible_byte_for_byte(capsys):
    argv = [
        "verify", "law", "--model", "vibrating_string", "--law", "wave_flux",
        "--against", "xi1,xi2", "--format", "json",
    ]
    code1, out1 = run_cli(argv, capsys)
    code2, out2 = run_cli(argv, capsys)
    scrub = lambda s: re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', s)
    assert code1 == code2 == 0
    assert scrub(out1) == scrub(out2)


# ---------------------------------------------------------------------------
# model files
# ---------------------------------------------------------------------------


def test_bundled_models_are_discoverable():
    names = bundled_model_names()
    assert "vibrating_string" in names and "nahm" in names
    path = resolve_model_path("vibrating_string")
    assert path.suffix == ".ksym"
    assert resolve_model_path("vibrating_string.ksym") == path


def test_load_model_exposes_parsed_structure():
    model = load_model(resolve_model_path("vibrating_string"))
    assert model.kind == "lagrangian"
    assert (model.n, model.k) == (1, 2)
    assert model.params == {"sigma": 1.0, "tau": 1.0}
    assert set(model.fields) == {"ddx", "xi1", "xi2"}
    assert set(model.laws) == {"wave_flux", "energy_tuple"}
    assert re.fullmatch(r"vibrating_string:[0-9a-f]{12}", model.label)


def test_param_override_rescales_the_model(capsys):
    code, out = run_cli(
        [
            "check", "regularity", "--model", "vibrating_string",
            "--param", "sigma=2", "--param", "tau=3", "--format", "json",
        ],
        capsys,
    )
    assert code == 0
    body = json.loads(out)
    assert body["checks"][0]["min_abs_det"] == pytest.approx(6.0)


def test_overridden_params_keep_laws_consistent(capsys):
    code, _ = run_cli(
        [
            "verify", "law", "--model", "vibrating_string", "--law", "wave_flux",
            "--against", "xi1,xi2", "--param", "sigma=2", "--param", "tau=0.5",
        ],
        capsys,
    )
    assert code == 0


def write_model(tmp_path: Path, text: str) -> Path:
    path = tmp_path / "model.ksym"
    path.write_text(text, encoding="utf-8")
    return path


def test_parse_error_reports_line_numbers(tmp_path):
    path = write_model(
        tmp_path,
        "[model]\nname = broken\nkind = ode\nn = 2\nn = 3\nk = 1\n",
    )
    with pytest.raises(ModelFileError, match=r"line 5: duplicate key 'n'"):
        load_model(path)


def test_missing_model_section_is_rejected(tmp_path):
    path = write_model(tmp_path, "[params]\nalpha = 1\n")
    with pytest.raises(ModelFileError, match="missing \\[model\\]"):
        load_model(path)


def test_unknown_model_key_is_rejected(tmp_path):
    path = write_model(
        tmp_path, "[model]\nname = m\nkind = ode\nn = 1\nk = 1\ncolor = red\n"
    )
    with pytest.raises(ModelFileError, match=r"line 6: unknown \[model\] key 'color'"):
        load_model(path)


def test_ode_with_function_is_rejected(tmp_path):
    path = write_model(
        tmp_path,
        "[model]\nname = m\nkind = ode\nn = 1\nk = 1\nfunction = x_1\n",
    )
    with pytest.raises(ModelFileError, match="takes no function"):
        load_model(path)


def test_law_with_missing_component_is_rejected(tmp_path):
    path = write_model(
        tmp_path,
        "[model]\nname = m\nkind = lagrangian\nn = 1\nk = 2\n"
        "function = (v_1_1^2 + v_2_1^2)/2\n\n[law partial]\nPhi_1 = v_1_1\n",
    )
    with pytest.raises(ModelFileError, match=r"\[law partial\] is missing Phi_2"):
        load_model(path)


def test_unknown_field_coordinate_is_rejected(tmp_path):
    path = write_model(
        tmp_path,
        "[model]\nname = m\nkind = ode\nn = 1\nk = 1\n\n[field F]\nc_q_1 = 1\n",
    )
    with pytest.raises(ModelFileError, match=r"line 8: .*c_<coordinate>"):
        load_model(path)


def test_bad_expression_keeps_its_line_number(tmp_path):
    path = write_model(
        tmp_path,
        "[model]\nname = m\nkind = ode\nn = 1\nk = 1\n\n[field F]\nc_x_1 = x_1 +* 2\n",
    )
    with pytest.raises(ModelFileError, match="line 8"):
        load_model(path)


def test_assignment_before_any_section_is_rejected(tmp_path):
    path = write_model(tmp_path, "name = m\n[model]\n")
    with pytest.raises(ModelFileError, match="line 1"):
        load_model(path)


def test_comments_and_crlf_are_accepted(tmp_path):
    text = "# header\r\n[model]\r\nname = m  # trailing\r\nkind = ode\r\nn = 1\r\nk = 1\r\n"
    path = write_model(tmp_path, text)
    model = load_model(path)
    assert model.name == "m"


def test_override_of_unknown_parameter_is_rejected(tmp_path, capsys):
    path = write_model(tmp_path, "[model]\nname = m\nkind = ode\nn = 1\nk = 1\n")
    with pytest.raises(ModelFileError, match="unknown parameter"):
        load_model(path, {"gamma": 2.0})
    code = main(
        ["check", "symmetry", "--model", str(path), "--field", "F", "--param", "gamma=2"]
    )
    assert code == 2


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
def test_non_finite_parameter_in_a_model_file_is_rejected(value, tmp_path):
    path = write_model(
        tmp_path,
        "[model]\nname = m\nkind = lagrangian\nn = 1\nk = 1\nfunction = nu*v_1_1^2/2\n\n"
        f"[params]\nnu = {value}\n",
    )
    with pytest.raises(ModelFileError, match=rf"line 9: parameter 'nu' must be finite, got '{value}'"):
        load_model(path)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_parameter_override_is_rejected(value):
    with pytest.raises(ModelFileError, match="parameter 'nu' must be finite"):
        load_model(resolve_model_path("navier"), {"nu": value})


def test_parameter_named_like_a_coordinate_is_rejected(tmp_path, capsys):
    # the expression parser resolves coordinates first, so x_1 here would
    # silently stay a coordinate
    path = write_model(
        tmp_path,
        "[model]\nname = m\nkind = lagrangian\nn = 1\nk = 1\nfunction = x_1*v_1_1^2/2\n\n"
        "[params]\nx_1 = 2\n",
    )
    with pytest.raises(ModelFileError, match="line 9: parameter 'x_1' is a coordinate"):
        load_model(path)
    assert main(["check", "regularity", "--model", str(path)]) == 2
    assert capsys.readouterr().err.startswith("model error: line 9: ")


# ---------------------------------------------------------------------------
# exit codes and usage errors
# ---------------------------------------------------------------------------


def test_unknown_command_exits_2(capsys):
    assert main(["frobnicate"]) == 2


def test_unknown_flag_exits_2(capsys):
    assert main(["list-models", "--verbose"]) == 2


def test_unknown_model_exits_2(capsys):
    assert main(["check", "regularity", "--model", "no_such_model"]) == 2
    assert "bundled models" in capsys.readouterr().err


def test_unknown_law_and_field_exit_2(capsys):
    assert main(["verify", "law", "--model", "free_particle", "--law", "nope"]) == 2
    assert main(["check", "symmetry", "--model", "free_particle", "--field", "nope"]) == 2


def test_variational_commands_reject_plain_systems(capsys):
    assert main(["check", "cartan", "--model", "nahm", "--field", "radial"]) == 2
    assert main(["check", "regularity", "--model", "oscillator_k1"]) == 2


def test_missing_default_evolution_exits_2(capsys):
    assert main(["verify", "evolution", "--model", "minimal_surface"]) == 2
    assert "--against" in capsys.readouterr().err


def test_bad_origin_and_step_exit_2(capsys):
    base = ["verify", "divergence", "--model", "free_particle", "--law", "momenta"]
    assert main(base + ["--origin", "0,1"]) == 2
    assert main(base + ["--origin", "0,1,2", "--T", "0.5", "--h", "0.3"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "law", "--model", "vibrating_string", "--law", "wave_flux",
         "--against", "xi1,xi2", "--param", "sigma=nan"],
        ["build", "noether", "--model", "vibrating_string", "--field", "ddx",
         "--param", "sigma=inf"],
        ["solve", "evolution", "--model", "navier", "--param", "nu=nan"],
        ["check", "regularity", "--model", "navier", "--param", "nu=1e400"],
        ["check", "regularity", "--model", "navier", "--param", "nu=-inf"],
    ],
)
def test_non_finite_parameters_end_cleanly(argv, capsys):
    err = assert_one_error_line(main(argv), capsys)
    assert "must be finite" in err


def assert_one_error_line(code, capsys):
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


def test_domain_error_in_a_sampled_check_exits_2(tmp_path, capsys):
    path = write_model(
        tmp_path,
        "[model]\nname = m\nkind = lagrangian\nn = 1\nk = 1\nfunction = v_1_1^2/2\n\n"
        "[field X]\nc_x_1 = v_1_1\n\n[law bad]\nPhi_1 = sqrt(x_1)\n",
    )
    code = main(["verify", "law", "--model", str(path), "--law", "bad"])
    err = assert_one_error_line(code, capsys)
    assert "square root of a negative number in 'sqrt(x_1)'" in err


def test_sampling_failure_names_the_rejecting_function(capsys):
    # the Lagrangian's squares overflow to inf everywhere in so wide a box
    argv = ["check", "symmetry", "--model", "free_particle", "--field", "ddx", "--box", "1e200"]
    err = assert_one_error_line(main(argv), capsys)
    assert "could not draw 64 valid points within 640 attempts; " in err
    assert "'(v_1_1^2 + v_2_1^2) / 2' is inf at [" in err


def test_sine_of_an_overflowed_argument_ends_cleanly(tmp_path, capsys):
    path = write_model(
        tmp_path,
        "[model]\nname = m\nkind = lagrangian\nn = 1\nk = 1\n"
        "function = v_1_1^2/2 + sin(exp(1000*x_1))\n",
    )
    code = main(["check", "regularity", "--model", str(path)])
    assert code in (0, 1, 2)
    assert "Traceback" not in capsys.readouterr().err


def run_ksym(argv) -> subprocess.CompletedProcess:
    """The CLI in a fresh interpreter, so LAPACK's own messages reach stderr."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    return subprocess.run([sys.executable, "-m", "ksym.cli", *argv], capture_output=True,
                          text=True, env=env)


@pytest.mark.parametrize(
    "kind, function, at",
    [
        ("lagrangian", "1e999 * v_1_1^2", "0.1,0.2"),
        ("lagrangian", "1e300 * v_1_1^2 * 1e300", "0.1,0.2"),
        ("hamiltonian", "(p_1_1^2 + x_1^4)/2", "1e120,0"),
    ],
)
def test_a_non_finite_evolution_system_fails_the_solve_check(kind, function, at, tmp_path):
    path = write_model(
        tmp_path, f"[model]\nname = m\nkind = {kind}\nn = 1\nk = 1\nfunction = {function}\n"
    )
    proc = run_ksym(["solve", "evolution", "--model", str(path), "--at", at, "--format", "json"])
    assert (proc.returncode, proc.stderr) == (1, "")
    body = json.loads(proc.stdout)
    assert "solution" not in body
    (check,) = body["checks"]
    assert check["name"] == "solve" and not check["pass"]
    assert check["error"] == "evolution system has non-finite entries at the point"


HUGE_HESSIAN = "1e300*v_1_1^2 + 1e300*v_2_1^2 + 1e300*v_1_1*v_2_1"


def refuse_constant(token):
    raise ValueError(f"{token} is not RFC 8259 JSON")


@pytest.mark.parametrize(
    "function, argv, code, verdict",
    [
        ("1e999*v_1_1*v_2_1 + v_1_1^2 + 1e999*v_2_1^2", ["solve", "evolution", "--at", "0.1,0.2,0.3"],
         1, {"pass": False, "error": "fiber Hessian is singular at the point (|det| = nan)",
             "max_residual": "Infinity"}),
        (HUGE_HESSIAN, ["check", "regularity", "--samples", "4"],
         0, {"pass": True, "min_abs_det": "Infinity", "max_residual": "-Infinity"}),
        (HUGE_HESSIAN, ["solve", "evolution", "--at", "0.1,0.2,0.3"],
         0, {"pass": True, "max_residual": 0.0}),
    ],
    ids=["nan-det-solve", "overflowing-det-regularity", "overflowing-det-solve"],
)
def test_a_non_finite_hessian_determinant_warns_nothing(function, argv, code, verdict, tmp_path):
    # an infinite Hessian entry makes det NaN, and huge finite ones overflow it;
    # the report stays strict JSON, its non-finite values written as strings
    path = write_model(
        tmp_path, f"[model]\nname = m\nkind = lagrangian\nn = 1\nk = 2\nfunction = {function}\n"
    )
    proc = run_ksym([*argv, "--model", str(path), "--format", "json"])
    assert (proc.returncode, proc.stderr) == (code, "")
    (check,) = json.loads(proc.stdout, parse_constant=refuse_constant)["checks"]
    assert {key: check[key] for key in verdict} == verdict


def test_every_non_finite_float_of_a_report_is_a_string_in_json_only():
    check = expr.Check("k", False, math.nan, math.inf, [0.5, -math.inf],
                       {"spread": [1.0, math.nan], "deep": {"det": -math.inf}})
    report = cli.Report("c", None, None, None, [("c", check)], {"at": [math.inf]})
    body = json.loads(report.to_json(), parse_constant=refuse_constant)
    (entry,) = body["checks"]
    assert (entry["max_residual"], entry["tol"], entry["witness"]) == ("NaN", "Infinity",
                                                                       [0.5, "-Infinity"])
    assert entry["spread"] == [1.0, "NaN"] and entry["deep"] == {"det": "-Infinity"}
    assert body["at"] == ["Infinity"]
    assert report.to_table().splitlines()[1:] == [
        "at: [Infinity]",
        "FAIL c [k] max_residual=nan tol=inf",
        '  deep: {"det": -Infinity}',
        "  spread: [1.0, NaN]",
    ]


def test_the_cli_builds_no_sampled_verdict_itself():
    # every check it reports comes whole from the library verifier for that job
    verdict_parts = {"residual_check", "law_residuals", "evolution_residuals", "worst_sample",
                     "max_abs"}
    assert not verdict_parts & set(vars(cli))


STRING_DUAL_MODEL = (
    "[model]\nname = string_dual\nkind = hamiltonian\nn = 1\nk = 2\n"
    "function = p_1_1^2/2 - p_2_1^2/2\n\n"
    "[field ddx]\nc_x_1 = 1\n\n[field X1]\nc_x_1 = p_1_1\n\n[field X2]\nc_x_1 = -p_2_1\n"
)


def test_the_string_dual_solves_verifies_and_builds_its_momenta(tmp_path, capsys):
    # the Legendre dual of vibrating_string: the Hamiltonian side at k = 2,
    # with X1, X2 as its default evolution
    model = ["--model", str(write_model(tmp_path, STRING_DUAL_MODEL)), "--format", "json"]
    code, out = run_cli(["solve", "evolution", "--at", "0.2,0.7,-0.4", *model], capsys)
    assert code == 0
    # base rows dH/dp_1_1 = 0.7 and dH/dp_2_1 = 0.4, fibers all zero
    assert sum(json.loads(out)["solution"], []) == pytest.approx([0.7, 0, 0, 0.4, 0, 0], abs=1e-12)
    code, out = run_cli(["verify", "evolution", "--against", "X1,X2", *model], capsys)
    assert code == 0 and json.loads(out)["checks"][0]["pass"]
    for argv in (["check", "cartan", "--field", "ddx"], ["verify", "evolution"],
                 ["solve", "evolution", "--at", "0.1,0.2,0.3"]):
        assert run_cli([*argv, *model], capsys)[0] == 0, argv
    code, out = run_cli(["build", "noether", "--field", "ddx", *model], capsys)
    assert code == 0 and json.loads(out)["phi"] == ["p_1_1", "p_2_1"]
    assert [(c["name"], c["pass"]) for c in json.loads(out)["checks"]] == [
        ("cartan:ddx", True), ("conserved-along-evolution", True)
    ]


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--T", "inf"), ("--T", "nan"), ("--T", "-0.25"),
        ("--h", "0"), ("--h", "-1"), ("--h", "inf"), ("--h", "nan"),
        ("--box", "nan"), ("--box", "inf"), ("--box", "0"), ("--box", "1e308"),
        ("--tol", "nan"), ("--tol", "inf"), ("--tol", "-1"),
        ("--seed", "-1"), ("--seed", "1.5"), ("--samples", "0"), ("--samples", "x"),
        ("--origin", "0,inf,2"), ("--origin", "nan,1,2"), ("--origin", "0,1e400,2"),
        ("--at", "1e400,2"), ("--at", "0,-inf"), ("--at", "nan,0"),
    ],
)
def test_invalid_numeric_flags_are_usage_errors(flag, value, capsys):
    argv = ["verify", "divergence", "--model", "free_particle", "--law", "momenta"]
    if flag == "--at":
        argv = ["solve", "evolution", "--model", "oscillator_k1"]
    assert main(argv + [flag, value]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"argument {flag}: " in err


def one_dimensional_model(tmp_path) -> Path:
    # base chart of dimension 1, so a count of nodes or samples is a count of values
    return write_model(
        tmp_path, "[model]\nname = m\nkind = ode\nn = 1\nk = 1\n\n[field F]\nc_x_1 = 1\n"
    )


@pytest.mark.parametrize("T, h", [("0", "1"), ("0.01", "0.01")])
def test_divergence_grid_needs_three_nodes_per_axis(T, h, capsys):
    argv = ["verify", "divergence", "--model", "free_particle", "--law", "momenta"]
    code = main(argv + ["--T", T, "--h", h])
    assert "at least 3 grid nodes per axis" in assert_one_error_line(code, capsys)


def lagrangian_model(tmp_path, function: str) -> Path:
    return write_model(
        tmp_path, f"[model]\nname = m\nkind = lagrangian\nn = 1\nk = 1\nfunction = {function}\n"
    )


@pytest.mark.parametrize(
    "function",
    ["(" * 3000 + "x_1" + ")" * 3000, "-" * 3000 + "x_1"],
    ids=["parentheses", "unary-minus"],
)
def test_nesting_over_the_parser_cap_is_a_model_error(function, tmp_path, capsys):
    path = lagrangian_model(tmp_path, f"v_1_1^2/2 + {function}")
    assert main(["check", "regularity", "--model", str(path)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("model error: ") and "nested deeper than" in err


@pytest.mark.parametrize(
    "function",
    [
        "x_1*(1+" * 100 + "x_1" + ")" * 100,  # Horner form nested 100 deep
        "sin(" * 400 + "x_1" + ")" * 400,
        " + ".join(f"x_1^{i}" for i in range(1, 3001)),
    ],
    ids=["horner-100", "sine-400", "sum-3000"],
)
def test_deep_or_wide_functions_reach_a_verdict(function, tmp_path, capsys):
    path = lagrangian_model(tmp_path, f"v_1_1^2/2 + {function}")
    code, out = run_cli(["check", "regularity", "--model", str(path), "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["checks"][0]["pass"] is True


def test_samples_over_the_budget_are_refused_before_sampling(tmp_path, capsys):
    path = one_dimensional_model(tmp_path)
    argv = ["check", "symmetry", "--model", str(path), "--field", "F", "--against", "F"]
    code = main(argv + ["--samples", str(MAX_ARRAY_VALUES + 1)])
    assert "over the budget" in assert_one_error_line(code, capsys)


def test_grid_over_the_budget_is_refused_before_integrating(tmp_path, capsys):
    path = one_dimensional_model(tmp_path)
    argv = ["integrate", "section", "--model", str(path), "--against", "F"]
    code = main(argv + ["--T", str(MAX_ARRAY_VALUES), "--h", "1"])  # budget + 1 nodes
    assert "over the budget" in assert_one_error_line(code, capsys)


@pytest.mark.parametrize("samples", ["3", "9"])
def test_too_few_samples_for_the_lambda_fit_report_no_fit(samples, capsys):
    # ten monomials of degree <= 2 in three coordinates: fewer samples leave
    # the fit under-determined, so it is left out as for no samples
    argv = [
        "check", "pseudosymmetry", "--model", "free_particle", "--field", "delta",
        "--against", "ddx,ddx", "--samples", samples, "--format", "json",
    ]
    code, out = run_cli(argv, capsys)
    assert code == 0
    (check,) = json.loads(out)["checks"]
    assert check["pass"] is True
    assert check["rank_deficient_points"] == int(samples)
    assert "lambda_fit" not in check and "lambda_fit_residual" not in check


def test_failing_check_exits_1(capsys):
    assert main(["check", "symmetry", "--model", "nahm", "--field", "radial"]) == 1


def test_an_unexpected_exception_is_an_internal_error(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise RuntimeError("boom\nsecond line")

    monkeypatch.setattr(cli, "load_model", fail)
    assert main(["check", "regularity", "--model", "vibrating_string"]) == 2
    assert capsys.readouterr().err == "internal error: RuntimeError('boom\\nsecond line')\n"


def test_regularity_at_zero_tolerance_stays_strict(tmp_path, capsys):
    # the fiber Hessian of a Lagrangian linear in velocity vanishes: |det| = 0
    # is not > 0, so the check fails even though -0.0 <= -0.0
    path = write_model(
        tmp_path, "[model]\nname = m\nkind = lagrangian\nn = 1\nk = 1\nfunction = v_1_1 + x_1^2\n"
    )
    code, out = run_cli(
        ["check", "regularity", "--model", str(path), "--tol", "0", "--format", "json"], capsys
    )
    assert code == 1
    assert '"pass": false' in out
    (check,) = json.loads(out)["checks"]
    assert check["min_abs_det"] == 0.0
    assert math.copysign(1.0, check["tol"]) == math.copysign(1.0, check["max_residual"]) == -1.0


def test_noether_checks_closedness_on_the_command_samples(tmp_path, capsys, monkeypatch):
    # the Cartan gate and the closedness of L_Y theta hold to --tol at the one
    # point drawn, and no check draws points of its own
    path = write_model(
        tmp_path,
        "[model]\nname = oscillator_k1\nkind = hamiltonian\nn = 1\nk = 1\n"
        "function = (p_1_1^2 + x_1^2)/2\n\n"
        "[field X]\nc_x_1 = p_1_1\nc_p_1_1 = -x_1\n\n"
        "[field Y]\nc_x_1 = (x_1 - 0.5)^2\n",
    )
    streams = []
    stream = expr._uniform_stream
    monkeypatch.setattr(expr, "_uniform_stream", lambda seed: streams.append(seed) or stream(seed))
    code = main([
        "build", "noether", "--model", str(path), "--field", "Y",
        "--samples", "1", "--tol", "0.1", "--box", "2", "--seed", "327",
    ])
    assert (code, capsys.readouterr().err, streams) == (0, "", [327])


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert main(["check", "--help"]) == 0


# ---------------------------------------------------------------------------
# the table and the parser built from it against the full one they replaced
# ---------------------------------------------------------------------------

LEAVES = [
    ["check", "regularity"], ["check", "symmetry"], ["check", "pseudosymmetry"],
    ["check", "cartan"], ["solve", "evolution"], ["verify", "evolution"], ["verify", "law"],
    ["verify", "divergence"], ["build", "noether"], ["build", "bracket-law"],
    ["integrate", "section"],
]
HELP_ARGVS = (
    [["--help"], ["list-models", "--help"]]
    + [[group, "--help"] for group in ("check", "solve", "verify", "build", "integrate")]
    + [leaf + ["--help"] for leaf in LEAVES]
)
MALFORMED_ARGVS = [
    [], ["frobnicate"], ["chec", "regularity"], ["check"], ["check", "frob"], ["check", "reg"],
    ["", "check"], ["check", ""], ["-", "check"], ["-5", "check"],
    ["--", "check", "regularity", "--model", "vibrating_string"],
    ["check", "--", "regularity", "--model", "vibrating_string"],
    ["-h", "check"], ["check", "-h", "regularity"], ["--he"], ["-hx"], ["--help=x"],
    ["-x", "check", "regularity", "--model", "vibrating_string"],
    ["-x", "check", "regularity", "-h"], ["check", "-x", "regularity", "-h"],
    ["--foo=1", "verify", "law", "--model", "free_particle", "--law", "momenta"],
    ["list-models", "--verbose"], ["list-models", "--format", "xml"],
    ["list-models", "--form", "json"], ["list-models", "extra"],
    ["check", "regularity"], ["check", "regularity", "--model"],
    ["check", "regularity", "--mod", "nahm", "-h"],
    ["check", "regularity", "--model", "vibrating_string", "--s", "3"],
    ["check", "regularity", "--model", "vibrating_string", "--bogus"],
    ["check", "regularity", "--model", "vibrating_string", "extra"],
    ["check", "regularity", "--model=vibrating_string", "--seed", "-1"],
    ["check", "regularity", "--model", "vibrating_string", "--samples=3", "--format=json"],
    ["check", "symmetry", "--model", "free_particle", "--f", "ddx", "--a", "ddx"],
    ["build", "bracket-law", "--model", "free_particle", "--s", "delta"],
    ["integrate", "section", "--model", "free_particle", "--T", "x"],
    ["verify", "divergence", "--model", "free_particle", "--law", "momenta", "--T"],
    ["solve", "evolution", "--model", "oscillator_k1", "--at", "1,nan"],
]


def run_main(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', out), err


@pytest.mark.parametrize(
    "argv",
    HELP_ARGVS + [argv for _, argv, _ in GOLDEN_CASES] + MALFORMED_ARGVS,
    ids=lambda argv: " ".join(argv) or "no-arguments",
)
def test_parser_output_matches_the_full_parser(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    actual = run_main(argv, capsys)
    # the oracle parses every argv: the table never runs on this side
    monkeypatch.setattr(cli, "_table_parse", lambda argv: None)
    monkeypatch.setattr(cli, "build_parser", parser_oracle.build_parser)
    assert actual == run_main(argv, capsys)


def count_parsers(monkeypatch) -> list:
    progs = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        progs.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    return progs


@pytest.mark.parametrize("argv", [
    ["check", "regularity", "--model", "vibrating_string"],
    ["verify", "law", "--model", "free_particle", "--law", "momenta"],
])
def test_a_valid_command_builds_no_parser(argv, capsys, monkeypatch):
    progs = count_parsers(monkeypatch)
    assert main(argv) in (0, 1)
    assert progs == []


def test_help_builds_one_parser_per_command_entry(capsys, monkeypatch):
    progs = count_parsers(monkeypatch)
    assert main(["--help"]) == 0
    expected = ["ksym"]
    for group, (_, body) in cli.COMMANDS.items():
        expected.append(f"ksym {group}")
        if isinstance(body, dict):
            expected += [f"ksym {group} {action}" for action in body]
    assert progs == expected


def test_list_models_builds_no_model(capsys, monkeypatch):
    progs = count_parsers(monkeypatch)

    def refuse(*args, **kwargs):
        raise AssertionError("list-models built a model")

    monkeypatch.setattr(cli, "load_model", refuse)
    monkeypatch.setattr(cli, "build_system", refuse)
    code, out = run_cli(["list-models", "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["models"] == json.loads(
        (GOLDEN_DIR / "list_models.json").read_text()
    )["models"]
    assert progs == []


PATHS = [
    [group, *([action] if action else [])]
    for group, entry in cli.COMMANDS.items()
    for action in (entry[-1] if isinstance(entry[-1], dict) else [None])
]
FLAG_VALUES = [
    "0", "1", "3", "0.5", "1e-3", "0,1,2", "0.3,0.7", "nan", "inf", "-1", "-1,0", "",
    "x", "json", "table", "a=1", "free_particle", "ddx", "momenta", "xi1,xi2", "-h", "--seed",
]


def leaf_flags(path) -> tuple:
    body = cli.COMMANDS[path[0]][-1]
    return body[path[1]][2] if isinstance(body, dict) else body


@st.composite
def command_lines(draw):
    """A command path, possibly mangled, its required flags, possibly dropped,
    then flags of any command (most of its own) with values, in any form."""
    path = draw(st.sampled_from(PATHS))
    own = [name for name, _ in leaf_flags(path)]
    required = [name for name, options in leaf_flags(path) if options.get("required")]
    flag = st.sampled_from(own * 4 + ["--help", "--bogus", "--against", "--out", "--at"])
    value = st.sampled_from(FLAG_VALUES + ["1"] * 10)  # "1" passes every flag but --format
    pairs = st.tuples(flag, value)
    piece = st.one_of(
        *[pairs.map(list)] * 4,
        pairs.map(lambda pair: ["=".join(pair)]),
        pairs.map(lambda pair: [pair[0][:4], pair[1]]),
        st.sampled_from([["-h"], ["--help"], ["-1"], ["-1,0"], [""], ["nan"], ["inf"], ["--"]]),
    )
    path = draw(st.sampled_from([path] * 4 + [path[:1], path[1:], [path[0][:4], *path[1:]]]))
    argv = list(path)
    for name in required:
        if draw(st.sampled_from([True] * 5 + [False])):
            argv += [name, draw(st.sampled_from(["free_particle", "ddx", "momenta", "delta"]))]
    for extra in draw(st.lists(piece, max_size=4)):
        argv += extra
    return argv


@settings(max_examples=300)
@example(["verify", "law", "--model", "--law", "--law", "momenta"])
@example(["check", "regularity", "--model", "-1,0"])
@given(command_lines())
def test_the_table_parses_as_the_full_parser_or_defers(argv):
    table = cli._table_parse(argv)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            oracle = parser_oracle.build_parser().parse_args(argv)
    except SystemExit:
        assert table is None
    else:
        assert table is None or parser_oracle.plain(table) == parser_oracle.plain(oracle)


@pytest.mark.parametrize("argv", [
    ["list-models"],
    ["check", "symmetry", "--model", "nahm", "--field", "radial", "--param", "a=1",
     "--seed", "3", "--param", "b=2", "--seed", "5", "--format", "json", "--box", "2"],
    ["solve", "evolution", "--model", "oscillator_k1", "--at", "0.3,0.7", "--at", "1,2"],
    ["verify", "divergence", "--model", "m", "--law", "", "--T", "1", "--h", "0.25"],
])
def test_the_table_parses_repeated_flags_as_argparse(argv):
    table = cli._table_parse(argv)
    assert table is not None
    assert parser_oracle.plain(table) == parser_oracle.plain(
        parser_oracle.build_parser().parse_args(argv)
    )


# ---------------------------------------------------------------------------
# the exit contract under fuzzed command lines and model files
# ---------------------------------------------------------------------------

INVALID_TOKENS = ["", "-1", "nan", "1e999", "abc"]
TMP = "{tmp}/"  # an argument naming a file in the test's tmp_path
BUNDLED_TEXTS = {name: resolve_model_path(name).read_text() for name in bundled_model_names()}
BUNDLED_MODELS = {name: load_model(resolve_model_path(name)) for name in bundled_model_names()}


def small_values(model_ref: str, model) -> dict:
    """Valid values of each flag, all tiny: at most 64 samples and, as --T is at
    most 0.5 and --h at least 0.0625, at most 8 steps per grid axis."""
    fields = st.sampled_from(sorted(model.fields))
    family = st.lists(fields, min_size=model.k, max_size=model.k).map(",".join)
    coordinate = st.sampled_from(["0", "0.1", "0.4", "1"])
    point = st.one_of(
        st.lists(coordinate, min_size=model.chart.dimension, max_size=model.chart.dimension),
        st.lists(coordinate, min_size=1, max_size=3),
    ).map(",".join)
    choices = {
        "--model": [model_ref], "--law": sorted(model.laws) or ["momenta"],
        "--seed": ["0", "7"], "--samples": ["1", "4", "64"], "--box": ["0.5", "1"],
        "--tol": ["0", "1e-6", "1"], "--param": [f"{p}=2" for p in model.params] or ["a=1"],
        "--format": ["json", "table"], "--T": ["0", "0.25", "0.5"],
        "--h": ["0.0625", "0.125", "0.25"], "--out": [TMP + "grid.csv"],
    }
    values = {flag: st.sampled_from(options) for flag, options in choices.items()}
    values.update({"--field": fields, "--s": fields, "--against": family, "--evolution": family,
                   "--origin": point, "--at": point})
    return values


@st.composite
def contract_argvs(draw, model_ref: str, model, swaps: int = 2):
    """A command of ``COMMANDS`` with its required flags and up to three more of
    its own, each with a valid value, then up to ``swaps`` of those values
    swapped for one of ``INVALID_TOKENS``; JSON output."""
    path = draw(st.sampled_from(PATHS))
    flags = dict(leaf_flags(path))
    valid = small_values(model_ref, model)
    argv = list(path)
    if "--T" in flags:  # the defaults would take 64 steps per axis
        argv += ["--T", "0.25", "--h", "0.125"]
    chosen = [flag for flag, options in flags.items() if options.get("required")]
    chosen += draw(st.lists(st.sampled_from(sorted(flags)), max_size=3))
    for flag in chosen:
        argv += [flag, draw(valid[flag])]
    values = range(len(argv) - 2 * len(chosen) + 1, len(argv), 2)
    for at in draw(st.lists(st.sampled_from(values), max_size=swaps, unique=True) if values else
                   st.just([])):
        token = draw(st.sampled_from(INVALID_TOKENS))
        argv[at] = TMP + token if argv[at - 1] == "--out" else token  # no stray files
    return argv + ["--format", "json"]


@st.composite
def bundled_commands(draw):
    name = draw(st.sampled_from(sorted(BUNDLED_MODELS)))
    return draw(contract_argvs(name, BUNDLED_MODELS[name]))


@st.composite
def mutated_model_commands(draw):
    """A bundled model's text with one line deleted, duplicated or given one of
    ``INVALID_TOKENS`` as its value, and a command on it whose flag values are
    all valid, so that what breaks is the model file."""
    name = draw(st.sampled_from(sorted(BUNDLED_TEXTS)))
    lines = BUNDLED_TEXTS[name].splitlines()
    at = draw(st.sampled_from(
        [i for i, line in enumerate(lines) if line.strip() and not line.startswith("#")]
    ))
    edit = draw(st.sampled_from(["delete", "duplicate"] + ["value"] * ("=" in lines[at])))
    if edit == "delete":
        del lines[at]
    elif edit == "duplicate":
        lines.insert(at, lines[at])
    else:
        lines[at] = f"{lines[at].partition('=')[0]}= {draw(st.sampled_from(INVALID_TOKENS))}"
    argv = draw(contract_argvs(TMP + "model.ksym", BUNDLED_MODELS[name], swaps=0))
    return "\n".join(lines) + "\n", argv


def assert_exit_contract(argv, tmp_path):
    argv = [str(tmp_path / a[len(TMP):]) if a.startswith(TMP) else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), (argv, err.getvalue())
    assert "internal error:" not in err.getvalue(), (argv, err.getvalue())
    if out.getvalue().startswith("{"):
        checks = json.loads(out.getvalue(), parse_constant=refuse_constant)["checks"]
        for check in checks:
            assert not (check["pass"] and check["max_residual"] in ("NaN", "Infinity")), (
                argv, check
            )
        assert code == (0 if all(check["pass"] for check in checks) else 1), argv


FUZZ_SETTINGS = settings(
    suppress_health_check=[*settings.default.suppress_health_check,
                           HealthCheck.function_scoped_fixture],
)


@FUZZ_SETTINGS
# a grid step whose square underflows to 0 divided the scale constant by zero
@example(argv=["verify", "divergence", "--model", "free_particle", "--law", "momenta",
               "--T", "1e-300", "--h", "5e-301", "--format", "json"])
@given(argv=bundled_commands())
def test_any_command_line_keeps_the_exit_contract(argv, tmp_path):
    assert_exit_contract(argv, tmp_path)


@FUZZ_SETTINGS
# an infinite law component made the divergence stencil warn inf - inf
@example(case=(
    BUNDLED_TEXTS["vibrating_string"].replace(
        "[law energy_tuple]\nPhi_1 = (sigma/2)*v_1_1^2 - (tau/2)*v_2_1^2",
        "[law energy_tuple]\nPhi_1 = 1e999",
    ),
    ["verify", "divergence", "--T", "0.25", "--h", "0.125", "--model", TMP + "model.ksym",
     "--law", "energy_tuple", "--against", "ddx,ddx", "--format", "json"],
))
# an infinite Z made the stacked pseudosymmetry solve warn in its matmul
@example(case=(
    BUNDLED_TEXTS["nahm"].replace("[field radial]\nc_x_1 = x_1", "[field radial]\nc_x_1 = 1e999"),
    ["check", "pseudosymmetry", "--model", TMP + "model.ksym", "--field", "X",
     "--against", "radial", "--format", "json"],
))
# two lines changed: X_1(Phi_1) = inf and X_2(Phi_2) = -inf made the law's sum warn
@example(case=(
    BUNDLED_TEXTS["free_particle"].replace("Phi_1 = -v_1_1\nPhi_2 = -v_2_1",
                                           "Phi_1 = 1e999*x_1\nPhi_2 = -1e999*x_1"),
    ["verify", "law", "--model", TMP + "model.ksym", "--law", "momenta",
     "--against", "ddx,ddx", "--format", "json"],
))
@given(case=mutated_model_commands())
def test_a_mutated_model_file_keeps_the_exit_contract(case, tmp_path):
    text, argv = case
    (tmp_path / "model.ksym").write_text(text)
    assert_exit_contract(argv, tmp_path)


# ---------------------------------------------------------------------------
# section export and console entry point
# ---------------------------------------------------------------------------


def test_integrate_section_writes_csv(tmp_path, capsys):
    target = tmp_path / "grid.csv"
    code, out = run_cli(
        [
            "integrate", "section", "--model", "free_particle",
            "--origin", "0,1,2", "--T", "0.25", "--h", "0.125",
            "--out", str(target), "--format", "json",
        ],
        capsys,
    )
    assert code == 0
    body = json.loads(out)
    assert body["grid_shape"] == [3, 3]
    assert body["csv_rows"] == 9
    lines = target.read_text().splitlines()
    assert lines[0] == "t_1,t_2,x_1,v_1_1,v_2_1"
    assert len(lines) == 10


def test_out_naming_a_directory_exits_2(tmp_path, capsys):
    argv = [
        "integrate", "section", "--model", "free_particle",
        "--T", "0.0625", "--h", "0.03125", "--out", str(tmp_path),
    ]
    err = assert_one_error_line(main(argv), capsys)
    assert "Is a directory" in err


SHEAR_MODEL = (
    "[model]\nname = shear\nkind = ode\nn = 2\nk = 2\n\n"
    "[field X1]\nc_x_1 = 1\n\n[field X2]\nc_x_2 = x_1\n"
)
SHEAR_SECTION = ["integrate", "section", "--against", "X1,X2", "--origin", "0,0", "--T", "0.5",
                 "--h", "0.25"]


def test_non_commuting_family_fails_the_section_check(tmp_path, capsys):
    path = write_model(tmp_path, SHEAR_MODEL)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(SHEAR_SECTION + ["--model", str(path)])
    assert code == 1
    assert "FAIL commutation" in capsys.readouterr().out


def test_a_wide_tolerance_passes_the_section_check_without_a_warning(tmp_path):
    # the commutation check reports the residual; nothing else is written
    path = write_model(tmp_path, SHEAR_MODEL)
    proc = run_ksym([*SHEAR_SECTION, "--model", str(path), "--tol", "2"])
    assert proc.returncode == 0
    assert "PASS commutation" in proc.stdout
    assert proc.stderr == ""


def test_the_commutation_witness_is_the_node_where_the_residual_peaks(tmp_path, capsys):
    # |[X1, X2]| = 2 x_1 peaks where the X1 flow has carried x_1 to 0.5
    path = write_model(tmp_path, SHEAR_MODEL.replace("c_x_2 = x_1", "c_x_2 = x_1^2"))
    code, out = run_cli(SHEAR_SECTION + ["--model", str(path), "--format", "json"], capsys)
    assert code == 1
    (check,) = json.loads(out)["checks"]
    assert (check["max_residual"], check["witness"]) == (1.0, [0.5, 0.0])


def test_a_domain_error_in_the_commutation_check_leaves_no_csv(tmp_path, capsys):
    # the X2 flow evaluates x_1*sqrt(x_1) at x_1 = 0; only [X1, X2] divides by sqrt(x_1)
    path = write_model(tmp_path, SHEAR_MODEL.replace("c_x_2 = x_1", "c_x_2 = x_1*sqrt(x_1)"))
    target = tmp_path / "grid.csv"
    code = main(SHEAR_SECTION + ["--model", str(path), "--out", str(target)])
    err = assert_one_error_line(code, capsys)
    assert "division by zero in '1 / (2 * sqrt(x_1))'" in err
    assert not target.exists()

def test_module_entry_point_runs():
    # runpy warns when the package import has already loaded ksym.cli
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "ksym.cli", "list-models",
         "--format", "json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["command"] == "list-models"


@pytest.mark.parametrize("argv, unbuffered", [
    (["check", "regularity", "--model", "navier", "--samples", "3"], True),
    (["check", "regularity", "--model", "navier", "--samples", "3"], False),
    (["--help"], True),  # argparse alone would drop the failed write of help
    (["--help"], False),
    # a leaf's help is written by its own subparser, deepest in the tree
    *[(leaf + ["--help"], True) for leaf in LEAVES],
], ids=["report-unbuffered", "report-buffered", "help-unbuffered", "help-buffered"]
    + ["help-unbuffered-" + "-".join(leaf) for leaf in LEAVES])
def test_a_closed_stdout_exits_2_with_one_error_line(argv, unbuffered):
    # unbuffered, the write fails; buffered, the flush does, and unflushed at
    # exit it would end in "Exception ignored" and exit 120
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ksym.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr == "error: cannot write to stdout: [Errno 32] Broken pipe\n"


def test_package_exports_load_model_lazily():
    from ksym import load_model, resolve_model_path

    assert load_model(resolve_model_path("free_particle")).name == "free_particle"


def test_console_script_entry_point_runs():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["ksym"]
    module, _, attr = target.partition(":")
    # what the wrapper that pip generates for [project.scripts] does
    wrapper = (
        f"import sys\nfrom {module} import {attr}\n"
        f"sys.argv = ['ksym', '--help']\nsys.exit({attr}())\n"
    )
    proc = subprocess.run([sys.executable, "-c", wrapper], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: ksym")


@pytest.mark.skipif(
    shutil.which("ksym") is None,
    reason="no ksym executable on PATH; install the package with "
    "`pip install -e . --no-build-isolation`",
)
def test_console_script_is_installed():
    exe = shutil.which("ksym")
    assert exe is not None
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0


# ---------------------------------------------------------------------------
# golden regeneration
# ---------------------------------------------------------------------------


def _regenerate():
    import contextlib
    import io

    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv, expected_exit in GOLDEN_CASES:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = main(argv + ["--format", "json"])
        if code != expected_exit:
            raise SystemExit(f"{name}: exit {code}, expected {expected_exit}")
        body = json.loads(buffer.getvalue())
        body["elapsed_ms"] = 0
        target = GOLDEN_DIR / f"{name}.json"
        target.write_text(json.dumps(body, indent=2) + "\n")
        print(f"wrote {target.relative_to(Path.cwd())}")


if __name__ == "__main__":
    _regenerate()
