"""Command line behavior: model files, reports, exit codes, golden outputs.

Run this module directly to regenerate the golden reports after an
intentional change: ``python tests/test_cli.py``.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

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
    ],
)
def test_non_finite_parameters_end_cleanly(argv, capsys):
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1


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


def test_sine_of_an_overflowed_argument_ends_cleanly(tmp_path, capsys):
    path = write_model(
        tmp_path,
        "[model]\nname = m\nkind = lagrangian\nn = 1\nk = 1\n"
        "function = v_1_1^2/2 + sin(exp(1000*x_1))\n",
    )
    code = main(["check", "regularity", "--model", str(path)])
    assert code in (0, 1, 2)
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--T", "inf"), ("--T", "nan"), ("--T", "-0.25"),
        ("--h", "0"), ("--h", "-1"), ("--h", "inf"), ("--h", "nan"),
        ("--box", "nan"), ("--box", "inf"), ("--box", "0"),
        ("--tol", "nan"), ("--tol", "inf"), ("--tol", "-1"),
        ("--seed", "-1"), ("--seed", "1.5"), ("--samples", "0"), ("--samples", "x"),
    ],
)
def test_invalid_numeric_flags_are_usage_errors(flag, value, capsys):
    argv = ["verify", "divergence", "--model", "free_particle", "--law", "momenta"]
    assert main(argv + [flag, value]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"argument {flag}: " in err


def one_dimensional_model(tmp_path) -> Path:
    # base chart of dimension 1, so a count of nodes or samples is a count of values
    return write_model(
        tmp_path, "[model]\nname = m\nkind = ode\nn = 1\nk = 1\n\n[field F]\nc_x_1 = 1\n"
    )


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


def test_failing_check_exits_1(capsys):
    assert main(["check", "symmetry", "--model", "nahm", "--field", "radial"]) == 1


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert main(["check", "--help"]) == 0


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


def test_non_commuting_family_fails_the_section_check(tmp_path, capsys):
    path = write_model(
        tmp_path,
        "[model]\nname = shear\nkind = ode\nn = 2\nk = 2\n\n"
        "[field X1]\nc_x_1 = 1\n\n[field X2]\nc_x_2 = x_1\n",
    )
    with pytest.warns(UserWarning, match="do not commute"):
        code = main(
            [
                "integrate", "section", "--model", str(path),
                "--origin", "0,0", "--T", "0.5", "--h", "0.25",
            ]
        )
    assert code == 1


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
