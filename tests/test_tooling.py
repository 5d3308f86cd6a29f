"""The package surface, the README's library example, and the benchmark
harness's traced run against the real package."""

import argparse
import ast
import contextlib
import functools
import importlib
import importlib.util
import io
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import ksym
import parser_oracle
from ksym import cli

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
SPANS = PERFBENCH / "spans.py"

# every name the package exported when it listed them in ``__init__``
EXPORTS = """
    ChartSpace Check EvaluationDomainError Expression ExprError ExprSyntaxError
    NonIntegerExponentError SamplingError UnknownIdentifierError base_chart
    cotangent_chart parse_expression sample_points simplify tangent_chart to_source
    ChartMismatchError ClosednessError PForm ScalarField VectorField exterior_derivative
    interior_product lie_bracket lie_derivative_form potential_of_exact_one_form
    cotangent_bundle tangent_bundle
    FieldSystem InconsistentSystemError KVectorField SingularHessianError build_system
    check_regularity solve_evolution_hamiltonian solve_evolution_lagrangian verify_evolution
    is_cartan_symmetry is_invariant_form is_symmetry solve_pseudosymmetry
    ConservationLaw NotCartanSymmetryError build_bracket_law build_noether_law
    check_momentum_converse user_law verify_law_pointwise
    SectionGrid check_integrability export_grid_csv integrate_section verify_law_divergence
    load_model resolve_model_path
""".split()


def test_former_exports_still_import_from_the_package():
    namespace = {}
    exec(f"from ksym import {', '.join(EXPORTS)}", namespace)  # ImportError on a lost name
    assert len(EXPORTS) == 55 and set(EXPORTS) <= set(namespace)


def test_the_package_exports_every_module_all():
    owners = {}
    for info in pkgutil.iter_modules(ksym.__path__):
        module = importlib.import_module(f"ksym.{info.name}")
        for name in module.__all__:
            assert name not in owners, f"{name} in both {owners.get(name)} and {info.name}"
            owners[name] = info.name
            assert getattr(ksym, name) is getattr(module, name)
    assert set(EXPORTS) <= set(owners)


def test_importing_the_package_loads_no_module():
    env = {**os.environ, "PYTHONPATH": str(Path(ksym.__file__).parents[1])}
    code = "import sys, ksym; print(sorted(m for m in sys.modules if m.startswith('ksym.')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# runs batches of argv lists, read from stdin, through one interpreter's
# ``main``; prints each batch's exit codes and the modules loaded after it
RUN_COMMANDS = """
import contextlib, io, json, sys
from ksym.cli import main
batches = []
for argvs in json.load(sys.stdin):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes = [main(argv) for argv in argvs]
    batches.append([codes, sorted(sys.modules)])
print(json.dumps(batches))
"""
WORKLOAD_COMMANDS = [
    command
    for workload in ("golden", "sampled")
    for command in json.loads((PERFBENCH / "workloads.json").read_text())[workload]["commands"]
]


def run_in_one_interpreter(*batches) -> list:
    """Per batch of argvs, run in order in one fresh interpreter: the exit
    codes, and the set of modules loaded once the batch has run."""
    env = {**os.environ, "PYTHONPATH": str(Path(ksym.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", RUN_COMMANDS], input=json.dumps(batches), capture_output=True,
        text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return [(codes, set(modules)) for codes, modules in json.loads(proc.stdout)]


@functools.cache
def workload_run() -> tuple:
    """The golden and sampled commands' exit codes and loaded modules, run in
    one fresh interpreter."""
    [(codes, loaded)] = run_in_one_interpreter([command["argv"] for command in WORKLOAD_COMMANDS])
    return codes, loaded


def test_no_benchmark_command_loads_numpys_random_module():
    # sampling reproduces default_rng(seed).uniform without importing it
    assert len(WORKLOAD_COMMANDS) == 30
    codes, loaded = workload_run()
    assert codes == [command["exit"] for command in WORKLOAD_COMMANDS]
    assert [m for m in loaded if m.startswith("numpy.random")] == []


def test_a_valid_command_loads_neither_argparse_nor_dataclasses():
    # the records are written out by hand, and argparse writes only help,
    # usage and errors: for help, an ambiguous flag and a refused value
    codes, loaded = workload_run()
    assert codes == [command["exit"] for command in WORKLOAD_COMMANDS]
    assert {"argparse", "dataclasses"} & loaded == set()
    for argv, code in [
        (["check", "regularity", "--help"], 0),
        (["check", "regularity", "--model", "navier", "--s", "3"], 2),
        (["check", "regularity", "--model", "navier", "--samples", "0"], 2),
    ]:
        [(codes, loaded)] = run_in_one_interpreter([argv])
        assert codes == [code] and "argparse" in loaded, argv


def test_no_golden_command_imports_a_module():
    # every module a command needs is loaded with ksym.cli; the quadrature
    # nodes of a potential that is never evaluated are never built
    from test_cli import GOLDEN_CASES

    argvs = [argv + ["--format", "json"] for _, argv, _ in GOLDEN_CASES]
    [(_, imported), (codes, loaded)] = run_in_one_interpreter([], argvs)
    assert codes == [code for _, _, code in GOLDEN_CASES]
    assert sorted(loaded - imported) == []


def imported_modules(path: Path) -> list:
    """(module name, top-level function it is imported in, or None) per import."""
    found = []
    for top in ast.parse(path.read_text()).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                continue
            scope = top.name if isinstance(top, ast.FunctionDef) else None
            found += [(name, scope) for name in names]
    return found


def test_the_package_source_never_names_numpys_random_module():
    sources = sorted(Path(ksym.__file__).parent.glob("*.py"))
    assert sources
    named = [p.name for p in sources if re.search(r"\b(np|numpy)\.random\b", p.read_text())]
    assert named == []


def test_the_package_imports_argparse_only_for_help_and_errors():
    sources = sorted(Path(ksym.__file__).parent.glob("*.py"))
    imports = {p.name: imported_modules(p) for p in sources}
    assert ("numpy", None) in imports["cli.py"]  # the scan sees module-level imports
    assert [(n, name) for n, found in imports.items() for name, _ in found
            if name == "dataclasses"] == []
    argparse_scopes = {(n, scope) for n, found in imports.items() for name, scope in found
                       if name == "argparse"}
    assert argparse_scopes == {("cli.py", "build_parser"), ("cli.py", "_type_error")}


def test_readme_library_example_prints_what_it_states():
    text = (ROOT / "README.md").read_text()
    section = text.split("## Library example", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 2
    # each print's comment states its output, up to the first ", "
    stated = [
        comment.split(", ")[0]
        for block in blocks
        for comment in re.findall(r"^print\(.*\)  # (.*)$", block, re.M)
    ]
    namespace, out = {}, io.StringIO()
    with contextlib.redirect_stdout(out):
        for block in blocks:
            exec(block, namespace)
    assert out.getvalue().splitlines() == stated


def test_every_traced_target_resolves():
    # the lookup Recorder.install does before it wraps anything; a name missing
    # here would make every traced benchmark command fail with LookupError
    spec = importlib.util.spec_from_file_location("spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for name in spans.SPAN_NAMES:
        module_name, _, target = name.partition(".")
        holder = importlib.import_module(f"ksym.{module_name}")
        for attr in target.split("."):
            holder = vars(holder).get(attr)
            if holder is None:
                missing.append(name)
                break
        else:
            assert callable(holder), name
    assert not missing


def benchmark_argvs(monkeypatch, tmp_path) -> list:
    """Every workload command's argv, with the seed and format ``run.py`` appends."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run = importlib.import_module("run")
    argvs = [
        run.command_argv(spec, 7, tmp_path / "grid.csv")
        for workload in run.WORKLOADS.values()
        for spec in workload["commands"]
    ]
    assert len(argvs) == 33
    return argvs


def test_benchmark_commands_parse_as_under_the_full_parser(monkeypatch, tmp_path):
    # main parses these with the table, so that is the parse compared
    for argv in benchmark_argvs(monkeypatch, tmp_path):
        table = cli._table_parse(argv)
        assert table is not None, argv
        assert parser_oracle.plain(table) == parser_oracle.plain(
            parser_oracle.build_parser().parse_args(argv)
        ), argv


def test_main_parses_every_benchmark_command_without_argparse(monkeypatch, tmp_path, capsys):
    # a flag or workload change that sent a benchmark command to argparse
    # would time argparse instead of the table
    argvs = benchmark_argvs(monkeypatch, tmp_path)

    def refuse(*args, **kwargs):
        raise AssertionError("built an argparse parser")

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
    monkeypatch.setattr(cli, "_dispatch", lambda args: cli.Report("stub", None, None, None, []))
    assert [cli.main(argv) for argv in argvs] == [0] * len(argvs)


# the traced targets that no workload command calls: they read 0 in every run
UNREACHED_BY_WORKLOADS = {"calculus.PotentialEvaluator.evaluate"}

# run.py's traced child, minus the span file: install the recorder, run argvs
TRACED_RUN = """
import contextlib, importlib.util, io, json, sys
import ksym.cli
spec = importlib.util.spec_from_file_location("spans", sys.argv[1])
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
recorder = spans.Recorder(0)
recorder.install({name: module for name, module in sys.modules.items()
                  if name == "ksym" or name.startswith("ksym.")})
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()):
        ksym.cli.main(argv)
called = {spans.SPAN_NAMES[i] for i in recorder.names}
print(json.dumps(sorted(set(spans.SPAN_NAMES) - called)))
"""


def test_the_workloads_reach_every_traced_target_but_the_potential(monkeypatch, tmp_path):
    argvs = benchmark_argvs(monkeypatch, tmp_path)
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", TRACED_RUN, str(SPANS), json.dumps(argvs)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert set(json.loads(proc.stdout)) == UNREACHED_BY_WORKLOADS
