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

import pytest

import ksym
import parser_oracle
from ksym import cli

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
SPANS = PERFBENCH / "spans.py"

# every name the package exported when it listed them in ``__init__``, less
# ``simplify`` (the smart constructors simplify) and ``check_momentum_converse``
EXPORTS = """
    ChartSpace Check EvaluationDomainError Expression ExprError ExprSyntaxError
    NonIntegerExponentError SamplingError UnknownIdentifierError base_chart
    cotangent_chart parse_expression sample_points tangent_chart to_source
    ChartMismatchError ClosednessError PForm ScalarField VectorField exterior_derivative
    interior_product lie_bracket lie_derivative_form potential_of_exact_one_form
    cotangent_bundle tangent_bundle
    FieldSystem InconsistentSystemError KVectorField SingularHessianError build_system
    check_regularity solve_evolution_hamiltonian solve_evolution_lagrangian verify_evolution
    is_cartan_symmetry is_invariant_form is_symmetry solve_pseudosymmetry
    ConservationLaw NotCartanSymmetryError build_bracket_law build_noether_law
    user_law verify_law_pointwise
    SectionGrid check_integrability export_grid_csv integrate_section verify_law_divergence
    load_model resolve_model_path
""".split()


def test_former_exports_still_import_from_the_package():
    namespace = {}
    exec(f"from ksym import {', '.join(EXPORTS)}", namespace)  # ImportError on a lost name
    assert len(EXPORTS) == 53 and set(EXPORTS) <= set(namespace)


# names deleted because another function does their job: field_evaluator
# evaluates, gradient differentiates, the make_* constructors simplify,
# calculus.verdict judges a residual family (the law's terms summed), and
# no command routed the Noether-converse check
@pytest.mark.parametrize("module, name", [
    ("expr", "batch_evaluator"),
    ("expr", "differentiate"),
    ("expr", "simplify"),
    ("expr", "residual_check"),
    ("conservation", "law_residuals"),
    ("conservation", "check_momentum_converse"),
])
def test_a_deleted_name_is_gone_from_the_package_and_its_module(module, name):
    with pytest.raises(ImportError):
        exec(f"from ksym import {name}", {})
    assert not hasattr(importlib.import_module(f"ksym.{module}"), name)


# the functions of ``src/ksym`` that build a ``Check``: the one verdict on an
# expression family; the checks whose residual is not one, a least-squares
# fit (pseudosymmetry), a determinant (regularity) and a stencil over grid
# values (divergence); and the CLI's two checks for a command that failed
CHECK_BUILDERS = {
    ("calculus", "verdict"),
    ("symmetry", "solve_pseudosymmetry"),
    ("dynamics", "check_regularity"),
    ("sections", "verify_law_divergence"),
    ("cli", "_cmd_solve_evolution"),
    ("cli", "_dispatch"),
}


def test_every_check_is_built_at_one_of_the_known_sites():
    # a new sampled check hands its residual family to calculus.verdict
    sites = set()
    for path in sorted(Path(ksym.__file__).parent.glob("*.py")):
        for function in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                sites.update((path.stem, function.name) for call in ast.walk(function)
                             if isinstance(call, ast.Call)
                             and getattr(call.func, "id", getattr(call.func, "attr", None))
                             == "Check")
    assert sites == CHECK_BUILDERS


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


def _names_read(tree: ast.Module) -> set:
    """Every name the module reads: in code, in annotations, and in annotations
    written as strings; an attribute chain reads its root name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        annotations = []
        if isinstance(node, ast.FunctionDef):
            annotations.append(node.returns)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        for annotation in annotations:
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                names |= _names_read(ast.parse(annotation.value))
    return names


def unused_imports(source: str) -> list:
    """The names that the module-level imports of ``source`` bind and that
    nothing in the module reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = _names_read(tree)
    return [name for name in bound if name not in read]


def test_every_module_level_import_in_the_package_is_used():
    # no linter runs on the package, so a deletion that leaves an import behind
    # fails here; an annotation, a string one too, counts as a use
    probe = "import os.path, re\nfrom typing import Any, IO\ndef f(x: 'IO') -> Any: re\n"
    assert unused_imports(probe) == ["os"]
    sources = sorted(Path(ksym.__file__).parent.glob("*.py"))
    unused = {p.name: unused_imports(p.read_text()) for p in sources}
    assert len(sources) > 1 and {name: found for name, found in unused.items() if found} == {}


def test_the_package_source_never_names_numpys_random_module():
    sources = sorted(Path(ksym.__file__).parent.glob("*.py"))
    assert sources
    named = [p.name for p in sources if re.search(r"\b(np|numpy)\.random\b", p.read_text())]
    assert named == []


def test_the_package_source_never_builds_a_record_around_its_constructor():
    # every field and form, given or derived, is checked by its constructor
    sources = sorted(Path(ksym.__file__).parent.glob("*.py"))
    assert sources
    assert [p.name for p in sources if "object.__new__" in p.read_text()] == []


def test_the_package_source_never_runs_source_text():
    # kernels are tapes of numpy calls: no exec, eval or builtin compile
    # (``re.compile`` is an attribute, not the builtin)
    sources = sorted(Path(ksym.__file__).parent.glob("*.py"))
    found = [(p.name, node.id) for p in sources for node in ast.walk(ast.parse(p.read_text()))
             if isinstance(node, ast.Name) and node.id in ("exec", "eval", "compile")]
    assert len(sources) > 1 and found == []


def test_only_same_chart_compares_charts_or_raises_a_chart_mismatch():
    found = []
    for path in sorted(Path(ksym.__file__).parent.glob("*.py")):
        lines = path.read_text().splitlines(keepends=True)
        if path.name == "calculus.py":  # cut out the one implementation
            same = next(node for node in ast.parse("".join(lines)).body
                        if isinstance(node, ast.FunctionDef) and node.name == "_same_chart")
            lines = lines[:same.lineno - 1] + lines[same.end_lineno:]
        pattern = r"\.chart\s*[!=]=|[!=]=\s*[\w.]+\.chart\b|(?<!class )\bChartMismatchError\("
        found += [(path.name, m.group()) for m in re.finditer(pattern, "".join(lines))]
    assert found == []


def test_the_package_imports_argparse_only_for_help_and_errors():
    sources = sorted(Path(ksym.__file__).parent.glob("*.py"))
    imports = {p.name: imported_modules(p) for p in sources}
    assert ("numpy", None) in imports["cli.py"]  # the scan sees module-level imports
    assert [(n, name) for n, found in imports.items() for name, _ in found
            if name == "dataclasses"] == []
    argparse_scopes = {(n, scope) for n, found in imports.items() for name, scope in found
                       if name == "argparse"}
    assert argparse_scopes == {("cli.py", "build_parser"), ("cli.py", "_type_error")}


def test_the_model_format_lives_in_models_alone():
    package = Path(ksym.__file__).parent
    from_cli = []
    for node in ast.walk(ast.parse((package / "models.py").read_text())):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            module = getattr(node, "module", None) or ""
            names = {f"{module}.{alias.name}".lstrip(".") for alias in node.names}
            if module in ("cli", "ksym.cli") or names & {"cli", "ksym.cli"}:
                from_cli.append(ast.unparse(node))
    assert from_cli == []
    cli_tree = ast.parse((package / "cli.py").read_text())
    defined = {node.name for node in ast.walk(cli_tree)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert defined & {"load_model", "_read_sections", "resolve_model_path"} == set()
    assert {name for name, _ in imported_modules(package / "cli.py")} & {"hashlib", "re"} == set()


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
UNREACHED_BY_WORKLOADS = {
    "calculus.PotentialEvaluator.evaluate",
    "calculus.ScalarField.evaluate",
    "calculus.VectorField.evaluate",
}

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


def test_the_workloads_reach_every_traced_target_but_the_unreached(monkeypatch, tmp_path):
    argvs = benchmark_argvs(monkeypatch, tmp_path)
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", TRACED_RUN, str(SPANS), json.dumps(argvs)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert set(json.loads(proc.stdout)) == UNREACHED_BY_WORKLOADS


def test_the_report_digest_prints_one_sha256_line():
    proc = subprocess.run([sys.executable, str(ROOT / "tests" / "report_digest.py")],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert re.fullmatch(r"[0-9a-f]{64}\n", proc.stdout), proc.stdout


# runs argvs, read from stdin, in one interpreter, each after clearing the
# caches a fresh interpreter starts without (gradients, kernels and bundles),
# so each command is measured cold; prints the exit codes, the expression
# walks (``expr.fold`` calls), and the runs of ``expr.field_evaluator``
# kernels and the rows fed to them, of all of them
COUNT_WORK = """
import contextlib, importlib, io, json, pkgutil, sys
import ksym
from ksym import bundles, cli, expr
modules = [importlib.import_module(f"ksym.{m.name}") for m in pkgutil.iter_modules(ksym.__path__)]
walks, runs, rows, fold, field_evaluator = 0, 0, 0, expr.fold, expr.field_evaluator

def counted_fold(root, rule):
    global walks
    walks += 1
    return fold(root, rule)

def counted_evaluator(exprs):
    kernel = field_evaluator(exprs)

    def run(points, *args, **kwargs):
        global runs, rows
        runs += 1
        rows += len(points)
        return kernel(points, *args, **kwargs)

    run.tape = kernel.tape
    return run

for module in modules:
    if vars(module).get("fold") is fold:
        module.fold = counted_fold
    if vars(module).get("field_evaluator") is field_evaluator:
        module.field_evaluator = counted_evaluator
codes = []
for argv in json.load(sys.stdin):
    for cached in (expr.gradient, field_evaluator, bundles.tangent_bundle,
                   bundles.cotangent_bundle):
        cached.cache_clear()
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
print(json.dumps([codes, walks, runs, rows]))
"""

# the expression walks of one golden pass; a derivative walk per slot and forms
# derived at every load would take 1,265, a validation walk per field and form
# 608, Lie derivatives by Cartan's formula 291, brackets that walk each
# component again rather than read the fields' cached partials 288, and
# gradients cached per field rather than memoized per expression 282
GOLDEN_PASS_WALKS = 233

# the expression walks of one sampled pass at seed 7; gradients cached per
# field rather than memoized per expression took 102
SAMPLED_PASS_WALKS = 91

# the field-kernel runs of one golden pass; marching the two section grids
# with a kernel run per RK4 stage took 689
GOLDEN_PASS_KERNEL_RUNS = 49

# the rows fed to field kernels in one sampled pass at seed 7; a family that
# reads no coordinate run on every row, and a zero L_Y theta_A sampled, took
# 213,000
SAMPLED_PASS_KERNEL_ROWS = 158_003


def count_work(monkeypatch, tmp_path, workload: str, seed: int) -> tuple:
    """One pass of ``workload`` at ``seed`` through ``COUNT_WORK``: the number
    of commands, and the walks, kernel runs and kernel rows of all of them."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run = importlib.import_module("run")
    specs = run.WORKLOADS[workload]["commands"]
    argvs = [run.command_argv(spec, seed, tmp_path / "grid.csv") for spec in specs]
    env = {**os.environ, "PYTHONPATH": str(Path(ksym.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", COUNT_WORK], input=json.dumps(argvs),
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    codes, walks, runs, rows = json.loads(proc.stdout)
    assert codes == [spec["exit"] for spec in specs]
    return len(argvs), walks, runs, rows


def test_a_golden_pass_walks_each_expression_few_times(monkeypatch, tmp_path):
    commands, walks, _, _ = count_work(monkeypatch, tmp_path, "golden", 42)
    assert commands == 22 and walks <= GOLDEN_PASS_WALKS


def test_a_golden_pass_marches_its_sections_without_kernel_runs(monkeypatch, tmp_path):
    commands, _, runs, _ = count_work(monkeypatch, tmp_path, "golden", 42)
    assert commands == 22 and runs <= GOLDEN_PASS_KERNEL_RUNS


def test_a_sampled_pass_walks_each_expression_few_times(monkeypatch, tmp_path):
    commands, walks, _, _ = count_work(monkeypatch, tmp_path, "sampled", 7)
    assert commands == 8 and walks <= SAMPLED_PASS_WALKS


def test_a_sampled_pass_runs_kernels_on_few_rows(monkeypatch, tmp_path):
    commands, _, _, rows = count_work(monkeypatch, tmp_path, "sampled", 7)
    assert commands == 8 and rows <= SAMPLED_PASS_KERNEL_ROWS


# the bytes ``tracemalloc`` sees at the peak of one 20,000 x 8 draw, above its
# output, in a fresh interpreter; a kernel that builds each block in fresh
# temporaries and stacks the states per block took 1,014,036
DRAW_PEAK_ABOVE_OUTPUT = 589_824

DRAW_PEAK = """
import tracemalloc
from ksym.expr import _uniform_stream
tracemalloc.start()
out = _uniform_stream(7)(-1.0, 1.0, (20000, 8))
print(tracemalloc.get_traced_memory()[1] - out.nbytes)
"""


def test_a_draw_holds_few_buffers_beside_its_output():
    env = {**os.environ, "PYTHONPATH": str(Path(ksym.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", DRAW_PEAK], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) <= DRAW_PEAK_ABOVE_OUTPUT
