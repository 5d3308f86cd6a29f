"""Command line front end.

Models live in a line-oriented text format: a ``[model]`` section naming the
chart and generating function, an optional ``[params]`` section of numeric
constants, and any number of named ``[field ...]`` and ``[law ...]`` sections.
Every command loads a model (bundled by name, or any path to a ``.ksym``
file), runs one check family, and emits a report as a table or as JSON.

Exit codes: 0 when every check passes, 1 when any fails, 2 for usage,
model-file and (with one ``internal error:`` line) any other errors, and for
a report or help text that cannot be written to a closed stdout.  Numeric
flags are checked when parsed, and the point arrays a command allocates
(samples or grid nodes, times the chart dimension) are held to
``MAX_ARRAY_VALUES``.

An argv of exact command names and ``--flag value`` pairs that the flags accept
is read straight from ``COMMANDS``; argparse (``build_parser``) parses any other
argv, and so writes every usage line and error message, and every help text,
which ``main`` writes out like a report.  Only then is argparse imported, so a
valid command never loads it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import re
import sys as _sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .calculus import ScalarField, VectorField
from .conservation import (
    LAW_TOLERANCE,
    ConservationLaw,
    NotCartanSymmetryError,
    build_bracket_law,
    build_noether_law,
    user_law,
    verify_law_pointwise,
)
from .dynamics import (
    EVOLUTION_TOLERANCE,
    REGULARITY_DET_TOL,
    FieldSystem,
    InconsistentSystemError,
    KVectorField,
    SingularHessianError,
    build_system,
    check_regularity,
    solve_evolution_hamiltonian,
    solve_evolution_lagrangian,
    verify_evolution,
)
from .expr import (
    ChartSpace,
    Check,
    EvaluationDomainError,
    ExprError,
    Num,
    Record,
    SamplingError,
    base_chart,
    parse_expression,
    sample_points,
    to_source,
)
from .sections import (
    COMMUTATION_TOLERANCE,
    DIVERGENCE_TOLERANCE,
    SectionIntegrationError,
    check_integrability,
    export_grid_csv,
    integrate_section,
    verify_law_divergence,
)
from .symmetry import (
    BRACKET_TOLERANCE,
    is_cartan_symmetry,
    is_symmetry,
    solve_pseudosymmetry,
)

__all__ = [
    "CliUsageError",
    "LoadedModel",
    "ModelFileError",
    "Report",
    "bundled_model_names",
    "load_model",
    "main",
    "resolve_model_path",
]

MODEL_KINDS = ("lagrangian", "hamiltonian", "ode")

_BUNDLED_DIR = Path(__file__).resolve().parent / "models"
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_SECTION = re.compile(r"\[([^\[\]]+)\]\Z")


class CliUsageError(Exception):
    """Bad flags or names; the command cannot even start."""


class ModelFileError(ValueError):
    """Malformed model file; carries the offending line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


# ---------------------------------------------------------------------------
# model files
# ---------------------------------------------------------------------------


class LoadedModel(Record, eq=False):
    """A parsed model file: chart, optional field system, named extras."""

    def __init__(self, name: str, kind: str, n: int, k: int, chart: ChartSpace,
                 system: FieldSystem | None, params: dict, fields: dict, laws: dict,
                 digest: str, path: Path):
        self._set(name=name, kind=kind, n=n, k=k, chart=chart, system=system, params=params,
                  fields=fields, laws=laws, digest=digest, path=path)

    @property
    def label(self) -> str:
        return f"{self.name}:{self.digest[:12]}"


def _read_sections(text: str):
    """Split the format into its sections, keeping line numbers for errors."""
    model: dict | None = None
    params: dict = {}
    fields: dict[str, dict] = {}
    laws: dict[str, dict] = {}
    current: dict | None = None
    params_seen = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        header = _SECTION.match(line)
        if header:
            parts = header.group(1).split()
            if parts == ["model"]:
                if model is not None:
                    raise ModelFileError("duplicate [model] section", lineno)
                model = {}
                current = model
            elif parts == ["params"]:
                if params_seen:
                    raise ModelFileError("duplicate [params] section", lineno)
                params_seen = True
                current = params
            elif len(parts) == 2 and parts[0] in ("field", "law"):
                kind, name = parts
                if not _IDENT.match(name):
                    raise ModelFileError(f"bad {kind} name {name!r}", lineno)
                table = fields if kind == "field" else laws
                if name in table:
                    raise ModelFileError(f"duplicate [{kind} {name}] section", lineno)
                table[name] = {}
                current = table[name]
            else:
                raise ModelFileError(
                    f"unrecognized section header [{header.group(1)}]", lineno
                )
            continue
        if current is None:
            raise ModelFileError("assignment before any section header", lineno)
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key or not value:
            raise ModelFileError("expected 'key = value'", lineno)
        if key in current:
            raise ModelFileError(f"duplicate key {key!r}", lineno)
        current[key] = (value, lineno)
    if model is None:
        raise ModelFileError("missing [model] section")
    return model, params, fields, laws


def _int_item(value: str, line: int, key: str) -> int:
    try:
        parsed = int(value)
    except ValueError:
        raise ModelFileError(f"{key} must be a positive integer, got {value!r}", line) from None
    if parsed < 1:
        raise ModelFileError(f"{key} must be a positive integer, got {value!r}", line)
    return parsed


def load_model(path, overrides: dict | None = None) -> LoadedModel:
    """Parse a model file, applying numeric parameter overrides first."""
    p = Path(path)
    raw = p.read_bytes()
    digest = hashlib.sha256(raw).hexdigest()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ModelFileError(f"not valid UTF-8: {exc}") from None
    model_items, param_items, field_items, law_items = _read_sections(text)

    for key, (_value, line) in model_items.items():
        if key not in ("name", "kind", "n", "k", "function"):
            raise ModelFileError(f"unknown [model] key {key!r}", line)

    def need(key: str):
        if key not in model_items:
            raise ModelFileError(f"[model] is missing {key!r}")
        return model_items[key]

    name, name_line = need("name")
    if not _IDENT.match(name):
        raise ModelFileError(f"bad model name {name!r}", name_line)
    kind, kind_line = need("kind")
    if kind not in MODEL_KINDS:
        raise ModelFileError(f"kind must be one of {', '.join(MODEL_KINDS)}", kind_line)
    n = _int_item(*need("n"), key="n")
    k = _int_item(*need("k"), key="k")
    if kind == "ode" and "function" in model_items:
        raise ModelFileError(
            "a plain dynamical system takes no function", model_items["function"][1]
        )

    params: dict[str, float] = {}
    for pname, (value, line) in param_items.items():
        if not _IDENT.match(pname):
            raise ModelFileError(f"bad parameter name {pname!r}", line)
        try:
            params[pname] = float(value)
        except ValueError:
            raise ModelFileError(
                f"parameter {pname!r} needs a numeric value, got {value!r}", line
            ) from None
        if not math.isfinite(params[pname]):
            raise ModelFileError(f"parameter {pname!r} must be finite, got {value!r}", line)
    for pname, value in (overrides or {}).items():
        if pname not in params:
            raise ModelFileError(f"cannot override unknown parameter {pname!r}")
        params[pname] = float(value)
        if not math.isfinite(params[pname]):
            raise ModelFileError(f"parameter {pname!r} must be finite, got {value!r}")

    if kind == "ode":
        chart = base_chart(n, k)
        system = None
    else:
        function, function_line = need("function")
        try:
            system = build_system(kind, n, k, function, parameters=params or None)
        except ExprError as exc:
            raise ModelFileError(f"bad function: {exc}", function_line) from None
        chart = system.chart
    for pname, (_value, line) in param_items.items():
        if chart.has_coordinate(pname):  # coordinates win when expressions are parsed
            raise ModelFileError(f"parameter {pname!r} is a coordinate of the chart", line)

    def expression(key: str, value: str, line: int):
        try:
            return parse_expression(value, chart, parameters=params or None)
        except ExprError as exc:
            raise ModelFileError(f"bad expression for {key}: {exc}", line) from None

    fields: dict[str, VectorField] = {}
    for fname, items in field_items.items():
        components = [Num(0.0)] * chart.dimension
        for key, (value, line) in items.items():
            if not key.startswith("c_") or not chart.has_coordinate(key[2:]):
                raise ModelFileError(
                    f"field components look like c_<coordinate> with one of "
                    f"{', '.join(chart.coordinate_names)}; got {key!r}",
                    line,
                )
            components[chart.index_of(key[2:])] = expression(key, value, line)
        fields[fname] = VectorField(chart, components)

    laws: dict[str, ConservationLaw] = {}
    for lname, items in law_items.items():
        wanted = [f"Phi_{A}" for A in range(1, k + 1)]
        for key, (_value, line) in items.items():
            if key not in wanted:
                raise ModelFileError(
                    f"law components are {', '.join(wanted)}; got {key!r}", line
                )
        scalars = []
        for key in wanted:
            if key not in items:
                raise ModelFileError(f"[law {lname}] is missing {key}")
            scalars.append(ScalarField(chart, expression(key, *items[key])))
        laws[lname] = user_law(chart, scalars)

    return LoadedModel(
        name=name,
        kind=kind,
        n=n,
        k=k,
        chart=chart,
        system=system,
        params=params,
        fields=fields,
        laws=laws,
        digest=digest,
        path=p,
    )


def bundled_model_names() -> tuple[str, ...]:
    return tuple(sorted(p.stem for p in _BUNDLED_DIR.glob("*.ksym")))


def resolve_model_path(ref: str) -> Path:
    """A path that exists wins; otherwise fall back to the bundled models."""
    direct = Path(ref)
    if direct.is_file():
        return direct
    stem = ref if ref.endswith(".ksym") else f"{ref}.ksym"
    bundled = _BUNDLED_DIR / stem
    if bundled.is_file():
        return bundled
    raise CliUsageError(
        f"no model named {ref!r}; bundled models: {', '.join(bundled_model_names())}"
    )


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def _json_value(value):
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return [_json_value(v) for v in value]
    if isinstance(value, dict):
        return {str(key): _json_value(v) for key, v in value.items()}
    return value


def _strict_json(value):
    """``value`` with each non-finite float as a string: RFC 8259 has no number for it."""
    if isinstance(value, float) and not math.isfinite(value):
        return "NaN" if math.isnan(value) else ("Infinity" if value > 0 else "-Infinity")
    if isinstance(value, list):
        return [_strict_json(v) for v in value]
    if isinstance(value, dict):
        return {key: _strict_json(v) for key, v in value.items()}
    return value


def _check_entry(name: str, check: Check) -> dict:
    """One report entry; passing means the check holds."""
    entry = {
        "name": name,
        "kind": check.kind,
        "tol": float(check.tolerance),
        "max_residual": float(check.max_residual),
        "witness": [float(w) for w in check.witness],
        "pass": bool(check.holds),
    }
    for key in sorted(check.extra):
        entry[key] = _json_value(check.extra[key])
    return entry


class Report(Record, frozen=False):
    """Everything one command run produced, in a fixed key order; ``checks``
    holds (name, Check) pairs."""

    def __init__(self, command: str, model: str | None, seed: int | None, samples: int | None,
                 checks: list, extra: dict | None = None, elapsed_ms: int = 0):
        self._set(command=command, model=model, seed=seed, samples=samples, checks=checks,
                  extra={} if extra is None else extra, elapsed_ms=elapsed_ms)

    @property
    def exit_code(self) -> int:
        return 0 if all(check.holds for _, check in self.checks) else 1

    def to_dict(self) -> dict:
        body = {
            "command": self.command,
            "model": self.model,
            "seed": self.seed,
            "samples": self.samples,
            "checks": [_check_entry(name, check) for name, check in self.checks],
        }
        for key in sorted(self.extra):
            body[key] = _json_value(self.extra[key])
        body["elapsed_ms"] = self.elapsed_ms
        return body

    def to_json(self) -> str:
        return json.dumps(_strict_json(self.to_dict()), indent=2, allow_nan=False)

    def to_table(self) -> str:
        lines = [f"command: {self.command}"]
        if self.model is not None:
            lines.append(f"model: {self.model}")
        if self.seed is not None:
            lines.append(f"seed: {self.seed}  samples: {self.samples}")
        for key in sorted(self.extra):
            lines.append(f"{key}: {json.dumps(_json_value(self.extra[key]))}")
        for name, check in self.checks:
            status = "PASS" if check.holds else "FAIL"
            lines.append(
                f"{status} {name} [{check.kind}] "
                f"max_residual={check.max_residual:.6g} tol={check.tolerance:.6g}"
            )
            for key in sorted(check.extra):
                lines.append(f"  {key}: {json.dumps(_json_value(check.extra[key]))}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# shared argument handling
# ---------------------------------------------------------------------------


def _parse_overrides(pairs) -> dict:
    overrides = {}
    for item in pairs or []:
        name, sep, value = item.partition("=")
        name = name.strip()
        if not sep or not name:
            raise CliUsageError(f"--param wants NAME=VALUE, got {item!r}")
        try:
            overrides[name] = float(value.strip())
        except ValueError:
            raise CliUsageError(f"--param {name!r} needs a numeric value") from None
        if not math.isfinite(overrides[name]):
            raise CliUsageError(f"--param {name!r} must be finite, got {value.strip()!r}")
    return overrides


# coordinate values one command may hold in a sample or grid array (80 MB)
MAX_ARRAY_VALUES = 10_000_000


def _check_budget(what: str, values: float) -> None:
    if values > MAX_ARRAY_VALUES:
        raise CliUsageError(
            f"{what} needs {values:.4g} coordinate values, over the budget of "
            f"{MAX_ARRAY_VALUES:,}"
        )


def _sample(model: LoadedModel, args) -> np.ndarray:
    _check_budget(f"--samples {args.samples}", args.samples * model.chart.dimension)
    require = (model.system.function,) if model.system is not None else ()
    return sample_points(
        model.chart, count=args.samples, seed=args.seed, halfwidth=args.box, require=require
    )


def _require_system(model: LoadedModel, command: str) -> FieldSystem:
    if model.system is None:
        raise CliUsageError(
            f"{command} needs a hamiltonian or lagrangian model, and "
            f"{model.name!r} is a plain dynamical system"
        )
    return model.system


def _named(model: LoadedModel, kind: str, name: str):
    """The model's field or law (``kind``) called ``name``."""
    table = model.fields if kind == "field" else model.laws
    if name not in table:
        raise CliUsageError(
            f"model {model.name!r} has no {kind} {name!r}; available: "
            f"{', '.join(sorted(table)) or 'none'}"
        )
    return table[name]


def _named_family(model: LoadedModel, names_csv: str) -> KVectorField:
    names = [s.strip() for s in names_csv.split(",") if s.strip()]
    if len(names) != model.k:
        raise CliUsageError(f"need {model.k} comma separated field names, got {len(names)}")
    return KVectorField(model.chart, [_named(model, "field", nm) for nm in names])


def _default_evolution_names(model: LoadedModel) -> list[str]:
    return ["X"] if model.k == 1 else [f"X{A}" for A in range(1, model.k + 1)]


def _maybe_evolution(model: LoadedModel) -> KVectorField | None:
    names = _default_evolution_names(model)
    if all(nm in model.fields for nm in names):
        return KVectorField(model.chart, [model.fields[nm] for nm in names])
    return None


def _evolution_family(model: LoadedModel, names_csv: str | None) -> KVectorField:
    if names_csv:
        return _named_family(model, names_csv)
    family = _maybe_evolution(model)
    if family is None:
        raise CliUsageError(
            f"model {model.name!r} bundles no default evolution fields "
            f"({', '.join(_default_evolution_names(model))}); name them with "
            "--against or --evolution"
        )
    return family


def _point(values: np.ndarray | None, chart: ChartSpace, flag: str) -> np.ndarray:
    if values is None:
        return np.zeros(chart.dimension)
    if len(values) != chart.dimension:
        raise CliUsageError(
            f"{flag} needs {chart.dimension} values, one per coordinate "
            f"({', '.join(chart.coordinate_names)})"
        )
    return values


def _phi_sources(law: ConservationLaw) -> list:
    return [
        to_source(comp.expr) if isinstance(comp, ScalarField) else None
        for comp in law.components
    ]


# ---------------------------------------------------------------------------
# commands: each returns its (name, Check) pairs and the report's extra keys
# ---------------------------------------------------------------------------


def _list_models() -> list:
    """The bundled models' headers, read without building any of them."""
    rows = []
    for name in bundled_model_names():
        text = (_BUNDLED_DIR / f"{name}.ksym").read_text(encoding="utf-8")
        model, _params, fields, laws = _read_sections(text)
        rows.append({
            "name": model["name"][0],
            "kind": model["kind"][0],
            "n": _int_item(*model["n"], key="n"),
            "k": _int_item(*model["k"], key="k"),
            "fields": sorted(fields),
            "laws": sorted(laws),
        })
    return rows


def _cmd_check_regularity(model: LoadedModel, args) -> tuple[list, dict]:
    system = _require_system(model, "check regularity")
    if not model.kind == "lagrangian":
        raise CliUsageError("check regularity applies to lagrangian models only")
    points = _sample(model, args)
    tol = REGULARITY_DET_TOL if args.tol is None else args.tol
    return [("regularity", check_regularity(system, points, tol))], {}


def _cmd_check_symmetry(model: LoadedModel, args) -> tuple[list, dict]:
    family = _evolution_family(model, args.against or args.evolution)
    Y = _named(model, "field", args.field)
    points = _sample(model, args)
    tol = BRACKET_TOLERANCE if args.tol is None else args.tol
    return [(f"symmetry:{args.field}", is_symmetry(family, Y, points, tolerance=tol))], {}


def _cmd_check_pseudosymmetry(model: LoadedModel, args) -> tuple[list, dict]:
    family = _evolution_family(model, args.evolution)
    Y = _named(model, "field", args.field)
    Z = _named_family(model, args.against) if args.against else family
    points = _sample(model, args)
    tol = BRACKET_TOLERANCE if args.tol is None else args.tol
    check, _lam = solve_pseudosymmetry(family, Y, Z, points, tolerance=tol)
    return [(f"pseudosymmetry:{args.field}", check)], {}


def _cmd_check_cartan(model: LoadedModel, args) -> tuple[list, dict]:
    system = _require_system(model, "check cartan")
    Y = _named(model, "field", args.field)
    points = _sample(model, args)
    check = is_cartan_symmetry(system, Y, points, tolerance=args.tol)
    return [(f"cartan:{args.field}", check)], {}


def _cmd_solve_evolution(model: LoadedModel, args) -> tuple[list, dict]:
    system = _require_system(model, "solve evolution")
    at = _point(args.at, model.chart, "--at")
    tol = EVOLUTION_TOLERANCE if args.tol is None else args.tol
    solver = solve_evolution_hamiltonian if system.hamiltonian_side else solve_evolution_lagrangian
    try:
        solution = solver(system, at)
    except (SingularHessianError, InconsistentSystemError) as exc:
        failed = Check("evolution-residual", False, math.inf, tol, at, {"error": str(exc)})
        return [("solve", failed)], {}
    family = KVectorField(
        model.chart,
        [VectorField(model.chart, [Num(float(c)) for c in row]) for row in solution],
    )
    check = verify_evolution(system, family, [at], tol)
    return [("solve", check)], {"at": [float(c) for c in at], "solution": solution.tolist()}


def _cmd_verify_evolution(model: LoadedModel, args) -> tuple[list, dict]:
    system = _require_system(model, "verify evolution")
    family = _evolution_family(model, args.against or args.evolution)
    points = _sample(model, args)
    tol = EVOLUTION_TOLERANCE if args.tol is None else args.tol
    return [("evolution", verify_evolution(system, family, points, tol))], {}


def _cmd_verify_law(model: LoadedModel, args) -> tuple[list, dict]:
    law = _named(model, "law", args.law)
    family = _evolution_family(model, args.against or args.evolution)
    points = _sample(model, args)
    tol = LAW_TOLERANCE if args.tol is None else args.tol
    return [(f"law:{args.law}", verify_law_pointwise(family, law, points, tol))], {}


def _integrate(model: LoadedModel, args, tol: float):
    """The section grid and its commutation check, run on the grid's nodes."""
    family = _evolution_family(model, args.against or args.evolution)
    origin = _point(args.origin, model.chart, "--origin")
    values = float(model.chart.dimension)
    for _ in family:
        values *= args.T / args.h + 1.0  # overflows to inf, never raises
    _check_budget(f"a grid with --T {args.T:g} --h {args.h:g}", values)
    try:
        grid = integrate_section(family, origin, args.T, args.h)
    except ValueError as exc:
        raise CliUsageError(str(exc)) from None
    return grid, check_integrability(family, grid.values.reshape(-1, model.chart.dimension), tol)


def _cmd_verify_divergence(model: LoadedModel, args) -> tuple[list, dict]:
    law = _named(model, "law", args.law)
    if args.T / args.h < 1.5:  # round(T / h) + 1 nodes per axis
        raise CliUsageError("verify divergence needs at least 3 grid nodes per axis: --T >= 2 * --h")
    grid, commutation = _integrate(model, args, COMMUTATION_TOLERANCE)
    tol = DIVERGENCE_TOLERANCE if args.tol is None else args.tol
    checks = [
        ("commutation", commutation),
        (f"divergence:{args.law}", verify_law_divergence(law, grid, tol)),
    ]
    return checks, {"grid_shape": list(grid.shape)}


def _cmd_integrate_section(model: LoadedModel, args) -> tuple[list, dict]:
    tol = COMMUTATION_TOLERANCE if args.tol is None else args.tol
    grid, commutation = _integrate(model, args, tol)
    extra = {"grid_shape": list(grid.shape)}
    if args.out:
        export_grid_csv(grid, args.out)
        extra["csv_rows"] = int(np.prod(grid.shape))
    return [("commutation", commutation)], extra


def _cmd_build_noether(model: LoadedModel, args) -> tuple[list, dict]:
    system = _require_system(model, "build noether")
    Y = _named(model, "field", args.field)
    points = _sample(model, args)
    try:
        law = build_noether_law(system, Y, points, args.tol)
    except NotCartanSymmetryError as exc:
        return [(f"cartan:{args.field}", exc.verdict)], {}
    checks = [(f"cartan:{args.field}", law.ingredients["cartan"])]
    family = _maybe_evolution(model)
    if family is not None:
        tol = system.default_tolerance if args.tol is None else args.tol
        checks.append(("conserved-along-evolution", verify_law_pointwise(family, law, points, tol)))
    return checks, {"phi": _phi_sources(law)}


def _cmd_build_bracket_law(model: LoadedModel, args) -> tuple[list, dict]:
    system = _require_system(model, "build bracket-law")
    s_names = [s.strip() for s in args.s.split(",") if s.strip()]
    s_fields = [_named(model, "field", nm) for nm in s_names]
    Y = _named(model, "field", args.field)
    try:
        law = build_bracket_law(system.omega, s_fields, Y)
    except ValueError as exc:
        raise CliUsageError(str(exc)) from None
    checks = []
    family = _maybe_evolution(model)
    if family is not None:
        points = _sample(model, args)
        tol = LAW_TOLERANCE if args.tol is None else args.tol
        checks.append(("conserved-along-evolution", verify_law_pointwise(family, law, points, tol)))
    return checks, {"phi": _phi_sources(law)}


# ---------------------------------------------------------------------------
# argument parser
# ---------------------------------------------------------------------------


def _type_error(message: str) -> Exception:
    """The error an argparse type raises for a refused value, printed as given;
    argparse is first imported here or in ``build_parser``."""
    import argparse

    return argparse.ArgumentTypeError(message)


def _number(convert, low: float, strict: bool = False):
    """An argparse type: a finite number at least ``low`` (above it if strict)."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise _type_error(f"invalid value {text!r}") from None
        if not (math.isfinite(value) and (value > low if strict else value >= low)):
            bound = f"> {low:g}" if strict else f">= {low:g}"
            finite = "finite and " if convert is float else ""
            raise _type_error(f"must be {finite}{bound}, got {text!r}")
        return value

    return parse


def _halfwidth(text: str) -> float:
    """An argparse type: a sampling half-width whose box span is finite."""
    value = _number(float, 0.0, strict=True)(text)
    if not math.isfinite(2.0 * value):
        raise _type_error(f"must have a finite span 2 * box, got {text!r}")
    return value


def _coordinates(text: str) -> np.ndarray:
    """An argparse type: comma separated finite numbers."""
    try:
        values = np.array([float(s) for s in text.split(",")])
    except ValueError:
        raise _type_error(f"wants comma separated numbers, got {text!r}") from None
    if not np.isfinite(values).all():
        raise _type_error(f"must be finite numbers, got {text!r}")
    return values


def _flag(name: str, help: str | None = None, **options) -> tuple:
    return name, dict(options, help=help)


def _family(against: str = "comma separated family (default: evolution)") -> tuple:
    return _flag("--against", against), _flag("--evolution", "override the default evolution fields")


_FORMAT = _flag("--format", choices=("table", "json"), default="table")
_COMMON = (
    _flag("--model", "bundled model name or path to a .ksym file", required=True),
    _flag("--seed", "sampling seed", type=_number(int, 0), default=42),
    _flag("--samples", "number of sample points", type=_number(int, 1), default=64),
    _flag("--box", "sampling half-width", type=_halfwidth, default=1.0),
    _flag("--tol", "override the check tolerance", type=_number(float, 0.0), default=None),
    _flag("--param", "override a model parameter (repeatable)", action="append", default=[],
          metavar="NAME=VALUE"),
    _FORMAT,
)
_LAW = _flag("--law", "law name from the model file", required=True)
_GRID = (
    _flag("--origin", "comma separated start point (default: origin)", type=_coordinates),
    _flag("--T", "integration span per axis", type=_number(float, 0.0), default=0.5),
    _flag("--h", "grid spacing per axis", type=_number(float, 0.0, strict=True), default=1 / 128),
)


def _leaf(help: str, handler, *arguments) -> tuple:
    return help, handler, _COMMON + arguments


# {group: (help, {action: (help, handler, arguments)})}, or (help, arguments) without actions
COMMANDS = {
    "list-models": ("list bundled models", (_FORMAT,)),
    "check": ("sampled predicate checks", {
        "regularity": _leaf("fiber Hessian invertibility", _cmd_check_regularity),
        "symmetry": _leaf("does a field commute with the evolution", _cmd_check_symmetry,
                          _flag("--field", "candidate symmetry field", required=True),
                          *_family("comma separated family to commute with (default: evolution)")),
        "pseudosymmetry": _leaf(
            "solve the bracket relation pointwise", _cmd_check_pseudosymmetry,
            _flag("--field", "candidate pseudosymmetry field", required=True),
            *_family("comma separated target family (default: the evolution itself)")),
        "cartan": _leaf("form and function invariance", _cmd_check_cartan,
                        _flag("--field", "candidate invariance field", required=True)),
    }),
    "solve": ("solve the evolution equation", {
        "evolution": _leaf("minimum-norm solution at a point", _cmd_solve_evolution, _flag(
            "--at", "comma separated chart point (default: origin)", type=_coordinates)),
    }),
    "verify": ("residual checks", {
        "evolution": _leaf("does a family solve the equation", _cmd_verify_evolution,
                           *_family("comma separated solution family (default: evolution)")),
        "law": _leaf("is a law conserved along a family", _cmd_verify_law, _LAW, *_family()),
        "divergence": _leaf("divergence of a law over a section grid", _cmd_verify_divergence,
                            _LAW, *_family(), *_GRID),
    }),
    "build": ("construct conservation laws", {
        "noether": _leaf("momentum law of an invariance field", _cmd_build_noether,
                         _flag("--field", "invariance field", required=True)),
        "bracket-law": _leaf("contraction law from field arguments", _cmd_build_bracket_law,
                             _flag("--s", "comma separated slot fields", required=True),
                             _flag("--field", "final slot field", required=True)),
    }),
    "integrate": ("integrate section grids", {
        "section": _leaf("fill a section grid by composed flows", _cmd_integrate_section,
                         *_family(), *_GRID, _flag("--out", "write the grid as CSV to this path")),
    }),
}


def build_parser():
    """The argparse parser of ``COMMANDS``, for the argv ``_table_parse`` leaves
    to it: only help, usage and errors import argparse."""
    import argparse

    def add(parser, body, dests):
        if isinstance(body, dict):
            sub = parser.add_subparsers(dest=dests[0], required=True)
            for name, entry in body.items():
                add(sub.add_parser(name, help=entry[0]), entry[-1], dests[1:])
        else:
            for name, options in body:
                parser.add_argument(name, **options)
        return parser

    parser = argparse.ArgumentParser(
        prog="ksym", description="Field-theory model checks from the command line."
    )
    return add(parser, COMMANDS, ("group", "action"))


def _table_parse(argv: list) -> SimpleNamespace | None:
    """The names and values argparse parses from a well-formed ``argv``, read
    straight from ``COMMANDS``; None for any argv that needs argparse to help
    or refuse."""
    if not argv or argv[0] not in COMMANDS:
        return None
    names, body, rest = {"group": argv[0]}, COMMANDS[argv[0]][-1], argv[1:]
    if isinstance(body, dict):
        if not rest or rest[0] not in body:
            return None
        names["action"], body, rest = rest[0], body[rest[0]][2], rest[1:]
    options, values = dict(body), {flag: option.get("default") for flag, option in body}
    missing = {flag for flag, option in body if option.get("required")}
    for flag, text in zip(rest[::2], rest[1::2]):
        option = options.get(flag)
        if option is None or text.startswith("-"):
            return None
        try:
            value = option.get("type", str)(text)
        except Exception:  # argparse refuses the value too, or raises the same error
            return None
        if "choices" in option and value not in option["choices"]:
            return None
        append = option.get("action") == "append"  # a new list: the default stays []
        values[flag] = values[flag] + [value] if append else value
        missing.discard(flag)
    if missing or len(rest) % 2:
        return None
    names.update((flag[2:].replace("-", "_"), value) for flag, value in values.items())
    return SimpleNamespace(**names)


def _dispatch(args) -> Report:
    if args.group == "list-models":
        return Report("list-models", None, None, None, [], {"models": _list_models()})
    model = load_model(resolve_model_path(args.model), _parse_overrides(args.param) or None)
    try:
        checks, extra = COMMANDS[args.group][1][args.action][1](model, args)
    except SectionIntegrationError as exc:  # a section that cannot be built fails its check
        failed = Check("section", False, math.inf, 0.0, (), {"error": str(exc)})
        checks, extra = [("integration", failed)], {}
    return Report(f"{args.group} {args.action}", model.label, args.seed, args.samples, checks, extra)


def main(argv=None) -> int:
    argv = _sys.argv[1:] if argv is None else list(argv)
    args = _table_parse(argv)
    if args is None:
        help_text = io.StringIO()  # argparse would drop a failed write of it
        try:
            with contextlib.redirect_stdout(help_text):
                args = build_parser().parse_args(argv)
        except SystemExit as exc:  # help, or usage and an error written to stderr
            return _finish(0 if exc.code in (0, None) else 2, help_text.getvalue())
    start = time.perf_counter()
    try:
        report = _dispatch(args)
    except ModelFileError as exc:
        print(f"model error: {exc}", file=_sys.stderr)
        return 2
    except (CliUsageError, OSError, SamplingError, EvaluationDomainError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 2
    except Exception as exc:  # a fault of ksym, never a failed check (exit 1)
        print(f"internal error: {exc!r}", file=_sys.stderr)
        return 2
    report.elapsed_ms = int(round((time.perf_counter() - start) * 1000))
    text = report.to_json() if args.format == "json" else report.to_table()
    return _finish(report.exit_code, text + "\n")


def _finish(code: int, text: str = "") -> int:
    """Write ``text`` to stdout and flush it: ``code``, or 2 with one ``error:``
    line when stdout is closed, never the exit 1 of a failed check nor the 120
    of a failed flush at exit."""
    try:
        _sys.stdout.write(text)
        _sys.stdout.flush()
    except OSError as exc:
        null = os.open(os.devnull, os.O_WRONLY)  # the flush at exit drops what is left
        os.dup2(null, _sys.stdout.fileno())
        os.close(null)
        print(f"error: cannot write to stdout: {exc}", file=_sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    raise SystemExit(main())
