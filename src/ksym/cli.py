"""Command line front end.

Models live in a line-oriented text format: a ``[model]`` section naming the
chart and generating function, an optional ``[params]`` section of numeric
constants, and any number of named ``[field ...]`` and ``[law ...]`` sections.
Every command loads a model (bundled by name, or any path to a ``.ksym``
file), runs one check family, and emits a report as a table or as JSON.

Exit codes: 0 when every check passes, 1 when any fails, 2 for usage or
model-file errors.  Numeric flags are checked when parsed, and the point
arrays a command allocates (samples or grid nodes, times the chart dimension)
are held to ``MAX_ARRAY_VALUES``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import re
import sys as _sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .calculus import ScalarField, VectorField
from .conservation import (
    ConservationLaw,
    NotCartanSymmetryError,
    build_bracket_law,
    build_noether_law,
    law_residuals,
    user_law,
)
from .dynamics import (
    FieldSystem,
    InconsistentSystemError,
    KVectorField,
    SingularHessianError,
    build_system,
    check_regularity,
    evolution_residuals,
    solve_evolution_hamiltonian,
    solve_evolution_lagrangian,
    verify_evolution,
)
from .expr import (
    ChartSpace,
    EvaluationDomainError,
    ExprError,
    Num,
    SamplingError,
    base_chart,
    parse_expression,
    sample_points,
    to_source,
    worst_sample,
)
from .sections import (
    SectionIntegrationError,
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
    "CheckRecord",
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
EVOLUTION_TOLERANCE = 1e-9
LAW_TOLERANCE = 1e-9
DIVERGENCE_TOLERANCE = 1e-8

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


@dataclass(frozen=True, eq=False)
class LoadedModel:
    """A parsed model file: chart, optional field system, named extras."""

    name: str
    kind: str
    n: int
    k: int
    chart: ChartSpace
    system: FieldSystem | None
    params: dict
    fields: dict
    laws: dict
    digest: str
    path: Path

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
    for pname, value in (overrides or {}).items():
        if pname not in params:
            raise ModelFileError(f"cannot override unknown parameter {pname!r}")
        params[pname] = float(value)

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
            try:
                components[chart.index_of(key[2:])] = parse_expression(
                    value, chart, parameters=params or None
                )
            except ExprError as exc:
                raise ModelFileError(f"bad expression for {key}: {exc}", line) from None
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
            value, line = items[key]
            try:
                scalars.append(
                    ScalarField(chart, parse_expression(value, chart, parameters=params or None))
                )
            except ExprError as exc:
                raise ModelFileError(f"bad expression for {key}: {exc}", line) from None
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


@dataclass
class CheckRecord:
    """One pass/fail entry; passing means max_residual <= tol."""

    name: str
    kind: str
    tol: float
    max_residual: float
    witness: tuple
    passed: bool
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        entry = {
            "name": self.name,
            "kind": self.kind,
            "tol": float(self.tol),
            "max_residual": float(self.max_residual),
            "witness": [_json_value(w) for w in self.witness],
            "pass": bool(self.passed),
        }
        for key in sorted(self.extra):
            entry[key] = _json_value(self.extra[key])
        return entry


@dataclass
class Report:
    """Everything one command run produced, in a fixed key order."""

    command: str
    model: str | None
    seed: int | None
    samples: int | None
    checks: list
    extra: dict = field(default_factory=dict)
    elapsed_ms: int = 0

    @property
    def exit_code(self) -> int:
        return 0 if all(record.passed for record in self.checks) else 1

    def to_dict(self) -> dict:
        body = {
            "command": self.command,
            "model": self.model,
            "seed": self.seed,
            "samples": self.samples,
            "checks": [record.to_dict() for record in self.checks],
        }
        for key in sorted(self.extra):
            body[key] = _json_value(self.extra[key])
        body["elapsed_ms"] = self.elapsed_ms
        return body

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def to_table(self) -> str:
        lines = [f"command: {self.command}"]
        if self.model is not None:
            lines.append(f"model: {self.model}")
        if self.seed is not None:
            lines.append(f"seed: {self.seed}  samples: {self.samples}")
        for key in sorted(self.extra):
            lines.append(f"{key}: {json.dumps(_json_value(self.extra[key]))}")
        for record in self.checks:
            status = "PASS" if record.passed else "FAIL"
            lines.append(
                f"{status} {record.name} [{record.kind}] "
                f"max_residual={record.max_residual:.6g} tol={record.tol:.6g}"
            )
            for key in sorted(record.extra):
                lines.append(f"  {key}: {json.dumps(_json_value(record.extra[key]))}")
        return "\n".join(lines)


def _record_from_verdict(name: str, verdict) -> CheckRecord:
    extra: dict = {}
    if verdict.lambda_fit is not None:
        extra["lambda_fit"] = [list(row) for row in verdict.lambda_fit]
        extra["lambda_fit_residual"] = verdict.lambda_fit_residual
    if verdict.rank_deficient_points:
        extra["rank_deficient_points"] = len(verdict.rank_deficient_points)
    return CheckRecord(
        name,
        verdict.kind,
        verdict.tolerance,
        verdict.max_residual,
        tuple(map(float, verdict.witness)),
        verdict.holds,
        extra,
    )


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
    return overrides


def _load_from_args(args) -> LoadedModel:
    path = resolve_model_path(args.model)
    return load_model(path, _parse_overrides(args.param) or None)


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


def _named_field(model: LoadedModel, name: str) -> VectorField:
    if name not in model.fields:
        raise CliUsageError(
            f"model {model.name!r} has no field {name!r}; available: "
            f"{', '.join(sorted(model.fields)) or 'none'}"
        )
    return model.fields[name]


def _named_law(model: LoadedModel, name: str) -> ConservationLaw:
    if name not in model.laws:
        raise CliUsageError(
            f"model {model.name!r} has no law {name!r}; available: "
            f"{', '.join(sorted(model.laws)) or 'none'}"
        )
    return model.laws[name]


def _named_family(model: LoadedModel, names_csv: str) -> KVectorField:
    names = [s.strip() for s in names_csv.split(",") if s.strip()]
    if len(names) != model.k:
        raise CliUsageError(f"need {model.k} comma separated field names, got {len(names)}")
    return KVectorField(model.chart, [_named_field(model, nm) for nm in names])


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


def _point(text: str | None, chart: ChartSpace, flag: str) -> np.ndarray:
    if text is None:
        return np.zeros(chart.dimension)
    try:
        values = [float(s) for s in text.split(",")]
    except ValueError:
        raise CliUsageError(f"{flag} wants comma separated numbers, got {text!r}") from None
    if len(values) != chart.dimension:
        raise CliUsageError(
            f"{flag} needs {chart.dimension} values, one per coordinate "
            f"({', '.join(chart.coordinate_names)})"
        )
    return np.asarray(values, dtype=float)


def _sampled_record(name: str, kind: str, residuals, points, tol: float) -> CheckRecord:
    worst, at = worst_sample(residuals)
    return CheckRecord(name, kind, tol, worst, tuple(map(float, points[at])), worst <= tol)


def _law_record(name: str, X: KVectorField, law: ConservationLaw, points, tol: float) -> CheckRecord:
    return _sampled_record(name, "law-pointwise", law_residuals(X, law, points), points, tol)


def _phi_sources(law: ConservationLaw) -> list:
    return [
        to_source(comp.expr) if isinstance(comp, ScalarField) else None
        for comp in law.components
    ]


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_list_models(args) -> Report:
    rows = []
    for name in bundled_model_names():
        model = load_model(_BUNDLED_DIR / f"{name}.ksym")
        rows.append(
            {
                "name": model.name,
                "kind": model.kind,
                "n": model.n,
                "k": model.k,
                "fields": sorted(model.fields),
                "laws": sorted(model.laws),
            }
        )
    return Report("list-models", None, None, None, [], {"models": rows})


def _cmd_check_regularity(model: LoadedModel, args) -> Report:
    system = _require_system(model, "check regularity")
    if not model.kind == "lagrangian":
        raise CliUsageError("check regularity applies to lagrangian models only")
    points = _sample(model, args)
    report = check_regularity(system, points)
    det_tol = report.tolerance if args.tol is None else args.tol
    # encoded so that pass still means max_residual <= tol
    record = CheckRecord(
        "regularity",
        "regularity",
        -det_tol,
        -report.min_abs_det,
        tuple(map(float, report.witness)),
        report.min_abs_det > det_tol,
        {"min_abs_det": report.min_abs_det},
    )
    return Report("check regularity", model.label, args.seed, args.samples, [record])


def _cmd_check_symmetry(model: LoadedModel, args) -> Report:
    family = _evolution_family(model, args.against or args.evolution)
    Y = _named_field(model, args.field)
    points = _sample(model, args)
    tol = BRACKET_TOLERANCE if args.tol is None else args.tol
    verdict = is_symmetry(family, Y, points, tolerance=tol)
    record = _record_from_verdict(f"symmetry:{args.field}", verdict)
    return Report("check symmetry", model.label, args.seed, args.samples, [record])


def _cmd_check_pseudosymmetry(model: LoadedModel, args) -> Report:
    family = _evolution_family(model, args.evolution)
    Y = _named_field(model, args.field)
    Z = _named_family(model, args.against) if args.against else family
    points = _sample(model, args)
    tol = BRACKET_TOLERANCE if args.tol is None else args.tol
    verdict = solve_pseudosymmetry(family, Y, Z, points, tolerance=tol)
    record = _record_from_verdict(f"pseudosymmetry:{args.field}", verdict)
    return Report("check pseudosymmetry", model.label, args.seed, args.samples, [record])


def _cmd_check_cartan(model: LoadedModel, args) -> Report:
    system = _require_system(model, "check cartan")
    Y = _named_field(model, args.field)
    points = _sample(model, args)
    verdict = is_cartan_symmetry(system, Y, points, tolerance=args.tol)
    record = _record_from_verdict(f"cartan:{args.field}", verdict)
    return Report("check cartan", model.label, args.seed, args.samples, [record])


def _cmd_solve_evolution(model: LoadedModel, args) -> Report:
    system = _require_system(model, "solve evolution")
    at = _point(args.at, model.chart, "--at")
    tol = EVOLUTION_TOLERANCE if args.tol is None else args.tol
    solver = solve_evolution_hamiltonian if system.hamiltonian_side else solve_evolution_lagrangian
    try:
        solution = solver(system, at)
    except (SingularHessianError, InconsistentSystemError) as exc:
        record = CheckRecord(
            "solve", "evolution-residual", tol, float("inf"),
            tuple(map(float, at)), False, {"error": str(exc)},
        )
        return Report("solve evolution", model.label, args.seed, args.samples, [record])
    family = KVectorField(
        model.chart,
        [VectorField(model.chart, [Num(float(c)) for c in row]) for row in solution],
    )
    residual = float(verify_evolution(system, family, [at]))
    record = CheckRecord(
        "solve", "evolution-residual", tol, residual, tuple(map(float, at)), residual <= tol
    )
    extra = {"at": [float(c) for c in at], "solution": solution.tolist()}
    return Report("solve evolution", model.label, args.seed, args.samples, [record], extra)


def _cmd_verify_evolution(model: LoadedModel, args) -> Report:
    system = _require_system(model, "verify evolution")
    family = _evolution_family(model, args.against or args.evolution)
    points = _sample(model, args)
    tol = EVOLUTION_TOLERANCE if args.tol is None else args.tol
    residuals = evolution_residuals(system, family, points)
    record = _sampled_record("evolution", "evolution-residual", residuals, points, tol)
    return Report("verify evolution", model.label, args.seed, args.samples, [record])


def _cmd_verify_law(model: LoadedModel, args) -> Report:
    law = _named_law(model, args.law)
    family = _evolution_family(model, args.against or args.evolution)
    points = _sample(model, args)
    tol = LAW_TOLERANCE if args.tol is None else args.tol
    record = _law_record(f"law:{args.law}", family, law, points, tol)
    return Report("verify law", model.label, args.seed, args.samples, [record])


def _integrate(model: LoadedModel, args):
    family = _evolution_family(model, args.against or args.evolution)
    origin = _point(args.origin, model.chart, "--origin")
    values = float(model.chart.dimension)
    for _ in family:
        values *= args.T / args.h + 1.0  # overflows to inf, never raises
    _check_budget(f"a grid with --T {args.T:g} --h {args.h:g}", values)
    try:
        return family, integrate_section(family, origin, args.T, args.h)
    except ValueError as exc:
        raise CliUsageError(str(exc)) from None


def _commutation_record(grid, tol: float) -> CheckRecord:
    return CheckRecord(
        "commutation",
        "commutation",
        tol,
        float(grid.commutation_residual),
        tuple(map(float, grid.origin)),
        grid.commutation_residual <= tol,
    )


def _cmd_verify_divergence(model: LoadedModel, args) -> Report:
    law = _named_law(model, args.law)
    try:
        _family, grid = _integrate(model, args)
    except SectionIntegrationError as exc:
        record = CheckRecord(
            "integration", "section", 0.0, float("inf"), (), False, {"error": str(exc)}
        )
        return Report("verify divergence", model.label, args.seed, args.samples, [record])
    tol = DIVERGENCE_TOLERANCE if args.tol is None else args.tol
    report = verify_law_divergence(law, grid)
    records = [
        _commutation_record(grid, DIVERGENCE_TOLERANCE),
        CheckRecord(
            f"divergence:{args.law}",
            "divergence",
            tol,
            float(report.max_residual),
            tuple(map(float, report.witness_point)),
            report.max_residual <= tol,
            {
                "scale_constant": report.scale_constant,
                "witness_t": [float(t) for t in report.witness_t],
            },
        ),
    ]
    extra = {"grid_shape": list(grid.shape)}
    return Report("verify divergence", model.label, args.seed, args.samples, records, extra)


def _cmd_integrate_section(model: LoadedModel, args) -> Report:
    try:
        _family, grid = _integrate(model, args)
    except SectionIntegrationError as exc:
        record = CheckRecord(
            "integration", "section", 0.0, float("inf"), (), False, {"error": str(exc)}
        )
        return Report("integrate section", model.label, args.seed, args.samples, [record])
    records = [_commutation_record(grid, DIVERGENCE_TOLERANCE if args.tol is None else args.tol)]
    extra = {"grid_shape": list(grid.shape)}
    if args.out:
        export_grid_csv(grid, args.out)
        extra["csv_rows"] = int(np.prod(grid.shape))
    return Report("integrate section", model.label, args.seed, args.samples, records, extra)


def _cmd_build_noether(model: LoadedModel, args) -> Report:
    system = _require_system(model, "build noether")
    Y = _named_field(model, args.field)
    points = _sample(model, args)
    try:
        law = build_noether_law(system, Y, points=points, tolerance=args.tol)
    except NotCartanSymmetryError as exc:
        record = _record_from_verdict(f"cartan:{args.field}", exc.verdict)
        return Report("build noether", model.label, args.seed, args.samples, [record])
    records = [_record_from_verdict(f"cartan:{args.field}", law.ingredients["cartan"])]
    family = _maybe_evolution(model)
    if family is not None:
        tol = system.default_tolerance if args.tol is None else args.tol
        records.append(_law_record("conserved-along-evolution", family, law, points, tol))
    extra = {"phi": _phi_sources(law)}
    return Report("build noether", model.label, args.seed, args.samples, records, extra)


def _cmd_build_bracket_law(model: LoadedModel, args) -> Report:
    system = _require_system(model, "build bracket-law")
    s_names = [s.strip() for s in args.s.split(",") if s.strip()]
    s_fields = [_named_field(model, nm) for nm in s_names]
    Y = _named_field(model, args.field)
    try:
        law = build_bracket_law(system.omega, s_fields, Y)
    except ValueError as exc:
        raise CliUsageError(str(exc)) from None
    records = []
    family = _maybe_evolution(model)
    if family is not None:
        points = _sample(model, args)
        tol = LAW_TOLERANCE if args.tol is None else args.tol
        records.append(_law_record("conserved-along-evolution", family, law, points, tol))
    extra = {"phi": _phi_sources(law)}
    return Report("build bracket-law", model.label, args.seed, args.samples, records, extra)


_HANDLERS = {
    ("check", "regularity"): _cmd_check_regularity,
    ("check", "symmetry"): _cmd_check_symmetry,
    ("check", "pseudosymmetry"): _cmd_check_pseudosymmetry,
    ("check", "cartan"): _cmd_check_cartan,
    ("solve", "evolution"): _cmd_solve_evolution,
    ("verify", "evolution"): _cmd_verify_evolution,
    ("verify", "law"): _cmd_verify_law,
    ("verify", "divergence"): _cmd_verify_divergence,
    ("build", "noether"): _cmd_build_noether,
    ("build", "bracket-law"): _cmd_build_bracket_law,
    ("integrate", "section"): _cmd_integrate_section,
}


# ---------------------------------------------------------------------------
# argument parser
# ---------------------------------------------------------------------------


def _number(convert, low: float, strict: bool = False):
    """An argparse type: a finite number at least ``low`` (above it if strict)."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid value {text!r}") from None
        if not (math.isfinite(value) and (value > low if strict else value >= low)):
            bound = f"> {low:g}" if strict else f">= {low:g}"
            finite = "finite and " if convert is float else ""
            raise argparse.ArgumentTypeError(f"must be {finite}{bound}, got {text!r}")
        return value

    return parse


def _grid_arguments(p) -> None:
    p.add_argument("--origin", help="comma separated start point (default: origin)")
    p.add_argument("--T", type=_number(float, 0.0), default=0.5, help="integration span per axis")
    p.add_argument("--h", type=_number(float, 0.0, strict=True), default=1 / 128, help="grid spacing per axis")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ksym", description="Field-theory model checks from the command line."
    )
    top = parser.add_subparsers(dest="group", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--model", required=True, help="bundled model name or path to a .ksym file")
    common.add_argument("--seed", type=_number(int, 0), default=42, help="sampling seed")
    common.add_argument("--samples", type=_number(int, 1), default=64, help="number of sample points")
    common.add_argument("--box", type=_number(float, 0.0, strict=True), default=1.0, help="sampling half-width")
    common.add_argument("--tol", type=_number(float, 0.0), default=None, help="override the check tolerance")
    common.add_argument(
        "--param", action="append", default=[], metavar="NAME=VALUE",
        help="override a model parameter (repeatable)",
    )
    common.add_argument("--format", choices=("table", "json"), default="table")

    listing = top.add_parser("list-models", help="list bundled models")
    listing.add_argument("--format", choices=("table", "json"), default="table")

    check = top.add_parser("check", help="sampled predicate checks")
    check_sub = check.add_subparsers(dest="action", required=True)
    check_sub.add_parser("regularity", parents=[common], help="fiber Hessian invertibility")
    p = check_sub.add_parser("symmetry", parents=[common], help="does a field commute with the evolution")
    p.add_argument("--field", required=True, help="candidate symmetry field")
    p.add_argument("--against", help="comma separated family to commute with (default: evolution)")
    p.add_argument("--evolution", help="override the default evolution fields")
    p = check_sub.add_parser(
        "pseudosymmetry", parents=[common], help="solve the bracket relation pointwise"
    )
    p.add_argument("--field", required=True, help="candidate pseudosymmetry field")
    p.add_argument("--against", help="comma separated target family (default: the evolution itself)")
    p.add_argument("--evolution", help="override the default evolution fields")
    p = check_sub.add_parser("cartan", parents=[common], help="form and function invariance")
    p.add_argument("--field", required=True, help="candidate invariance field")

    solve = top.add_parser("solve", help="solve the evolution equation")
    solve_sub = solve.add_subparsers(dest="action", required=True)
    p = solve_sub.add_parser("evolution", parents=[common], help="minimum-norm solution at a point")
    p.add_argument("--at", help="comma separated chart point (default: origin)")

    verify = top.add_parser("verify", help="residual checks")
    verify_sub = verify.add_subparsers(dest="action", required=True)
    p = verify_sub.add_parser("evolution", parents=[common], help="does a family solve the equation")
    p.add_argument("--against", help="comma separated solution family (default: evolution)")
    p.add_argument("--evolution", help="override the default evolution fields")
    p = verify_sub.add_parser("law", parents=[common], help="is a law conserved along a family")
    p.add_argument("--law", required=True, help="law name from the model file")
    p.add_argument("--against", help="comma separated family (default: evolution)")
    p.add_argument("--evolution", help="override the default evolution fields")
    p = verify_sub.add_parser("divergence", parents=[common], help="divergence of a law over a section grid")
    p.add_argument("--law", required=True, help="law name from the model file")
    p.add_argument("--against", help="comma separated family (default: evolution)")
    p.add_argument("--evolution", help="override the default evolution fields")
    _grid_arguments(p)

    build = top.add_parser("build", help="construct conservation laws")
    build_sub = build.add_subparsers(dest="action", required=True)
    p = build_sub.add_parser("noether", parents=[common], help="momentum law of an invariance field")
    p.add_argument("--field", required=True, help="invariance field")
    p = build_sub.add_parser("bracket-law", parents=[common], help="contraction law from field arguments")
    p.add_argument("--s", required=True, help="comma separated slot fields")
    p.add_argument("--field", required=True, help="final slot field")

    integrate = top.add_parser("integrate", help="integrate section grids")
    integrate_sub = integrate.add_subparsers(dest="action", required=True)
    p = integrate_sub.add_parser("section", parents=[common], help="fill a section grid by composed flows")
    p.add_argument("--against", help="comma separated family (default: evolution)")
    p.add_argument("--evolution", help="override the default evolution fields")
    _grid_arguments(p)
    p.add_argument("--out", help="write the grid as CSV to this path")

    return parser


def _dispatch(args) -> Report:
    if args.group == "list-models":
        return _cmd_list_models(args)
    model = _load_from_args(args)
    return _HANDLERS[(args.group, args.action)](model, args)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    start = time.perf_counter()
    try:
        report = _dispatch(args)
    except ModelFileError as exc:
        print(f"model error: {exc}", file=_sys.stderr)
        return 2
    except (CliUsageError, FileNotFoundError, SamplingError, EvaluationDomainError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 2
    report.elapsed_ms = int(round((time.perf_counter() - start) * 1000))
    print(report.to_json() if args.format == "json" else report.to_table())
    return report.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
