"""Command line front end.

Every command but ``list-models`` loads a model (``ksym.models``: bundled by
name, or any path to a ``.ksym`` file), runs one check family, and emits a
report as a table or as JSON.  Each takes ``--model``, ``--tol``, ``--param``
and ``--format``; only the eight that draw sample points take ``--seed``,
``--samples`` and ``--box``, and report a seed and a sample count.

Exit codes: 0 when every check passes, 1 when any fails, 2 for usage,
model-file and (with one ``internal error:`` line) any other errors, and for
a report or help text that cannot be written to a closed stdout.  Numeric
flags are checked when parsed, and the point arrays a command allocates
(samples or grid nodes, times the chart dimension) are held to
``MAX_ARRAY_VALUES``.

An argv of exact command names and ``--flag value`` pairs that the flags
accept is read straight from the command table ``COMMANDS``; argparse
(``build_parser``) parses any other argv and writes every help text, usage
line and error.  Only then is it imported, so a valid command never loads it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys as _sys
import time
from types import SimpleNamespace

import numpy as np

from .calculus import VectorField
from .conservation import (
    ConservationLaw,
    NotCartanSymmetryError,
    build_bracket_law,
    build_noether_law,
    verify_law_pointwise,
)
from .dynamics import (
    EVOLUTION_TOLERANCE,
    FieldSystem,
    InconsistentSystemError,
    KVectorField,
    SingularHessianError,
    check_regularity,
    solve_evolution_hamiltonian,
    solve_evolution_lagrangian,
    verify_evolution,
)
from .expr import (
    ChartSpace,
    Check,
    EvaluationDomainError,
    Num,
    Record,
    SamplingError,
    sample_points,
    to_source,
)
from .models import (
    CliUsageError,
    LoadedModel,
    ModelFileError,
    bundled_model_rows,
    load_model,
    resolve_model_path,
)
from .sections import (
    SectionIntegrationError,
    check_integrability,
    export_grid_csv,
    integrate_section,
    verify_law_divergence,
)
from .symmetry import (
    is_cartan_symmetry,
    is_symmetry,
    solve_pseudosymmetry,
)

__all__ = ["Report", "main"]

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


def _tolerance(args) -> dict:
    """``tolerance=--tol`` when it is given: each verifier owns its default."""
    return {} if args.tol is None else {"tolerance": args.tol}


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
    if model.chart.k != len(names):
        raise CliUsageError(f"need {model.chart.k} comma separated field names, got {len(names)}")
    return KVectorField(model.chart, [_named(model, "field", nm) for nm in names])


def _default_evolution_names(model: LoadedModel) -> list[str]:
    return ["X"] if model.chart.k == 1 else [f"X{A}" for A in range(1, model.chart.k + 1)]


def _maybe_evolution(model: LoadedModel) -> KVectorField | None:
    names = _default_evolution_names(model)
    if all(nm in model.fields for nm in names):
        return KVectorField(model.chart, [model.fields[nm] for nm in names])
    return None


def _evolution_family(model: LoadedModel, names_csv: str | None, flag: str) -> KVectorField:
    if names_csv:
        return _named_family(model, names_csv)
    family = _maybe_evolution(model)
    if family is None:
        raise CliUsageError(
            f"model {model.name!r} bundles no default evolution fields "
            f"({', '.join(_default_evolution_names(model))}); name them with {flag}"
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
    """Each component's source, or None where the law subtracts a potential."""
    pairs = zip(law.components, law.potentials)
    return [to_source(c.expr) if f is None else None for c, f in pairs]


# ---------------------------------------------------------------------------
# commands: each returns its (name, Check) pairs and the report's extra keys
# ---------------------------------------------------------------------------


def _cmd_check_regularity(model: LoadedModel, args) -> tuple[list, dict]:
    if model.kind != "lagrangian":
        raise CliUsageError("check regularity applies to lagrangian models only")
    points = _sample(model, args)
    return [("regularity", check_regularity(model.system, points, **_tolerance(args)))], {}


def _cmd_check_symmetry(model: LoadedModel, args) -> tuple[list, dict]:
    family = _evolution_family(model, args.against, "--against")
    Y = _named(model, "field", args.field)
    points = _sample(model, args)
    return [(f"symmetry:{args.field}", is_symmetry(family, Y, points, **_tolerance(args)))], {}


def _cmd_check_pseudosymmetry(model: LoadedModel, args) -> tuple[list, dict]:
    family = _evolution_family(model, args.evolution, "--evolution")
    Y = _named(model, "field", args.field)
    Z = _named_family(model, args.against) if args.against else family
    points = _sample(model, args)
    check, _lam = solve_pseudosymmetry(family, Y, Z, points, **_tolerance(args))
    return [(f"pseudosymmetry:{args.field}", check)], {}


def _cmd_check_cartan(model: LoadedModel, args) -> tuple[list, dict]:
    system = _require_system(model, "check cartan")
    Y = _named(model, "field", args.field)
    points = _sample(model, args)
    check = is_cartan_symmetry(system, Y, points, **_tolerance(args))
    return [(f"cartan:{args.field}", check)], {}


def _cmd_solve_evolution(model: LoadedModel, args) -> tuple[list, dict]:
    system = _require_system(model, "solve evolution")
    at = _point(args.at, model.chart, "--at")
    tol = EVOLUTION_TOLERANCE if args.tol is None else args.tol
    hamiltonian = system.kind == "hamiltonian"
    solver = solve_evolution_hamiltonian if hamiltonian else solve_evolution_lagrangian
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
    family = _evolution_family(model, args.against, "--against")
    points = _sample(model, args)
    return [("evolution", verify_evolution(system, family, points, **_tolerance(args)))], {}


def _cmd_verify_law(model: LoadedModel, args) -> tuple[list, dict]:
    law = _named(model, "law", args.law)
    family = _evolution_family(model, args.against, "--against")
    points = _sample(model, args)
    check = verify_law_pointwise(family, law, points, **_tolerance(args))
    return [(f"law:{args.law}", check)], {}


def _integrate(model: LoadedModel, args, tolerance: dict):
    """The section grid and its commutation check, run on the grid's nodes
    with the ``tolerance`` keywords."""
    family = _evolution_family(model, args.against, "--against")
    origin = _point(args.origin, model.chart, "--origin")
    values = float(model.chart.dimension)
    for _ in family:
        values *= args.T / args.h + 1.0  # overflows to inf, never raises
    _check_budget(f"a grid with --T {args.T:g} --h {args.h:g}", values)
    try:
        grid = integrate_section(family, origin, args.T, args.h)
    except ValueError as exc:
        raise CliUsageError(str(exc)) from None
    points = grid.values.reshape(-1, model.chart.dimension)
    return grid, check_integrability(family, points, **tolerance)


def _cmd_verify_divergence(model: LoadedModel, args) -> tuple[list, dict]:
    law = _named(model, "law", args.law)
    if args.T / args.h < 1.5:  # round(T / h) + 1 nodes per axis
        raise CliUsageError("verify divergence needs at least 3 grid nodes per axis: --T >= 2 * --h")
    grid, commutation = _integrate(model, args, {})  # --tol is the divergence's alone
    checks = [
        ("commutation", commutation),
        (f"divergence:{args.law}", verify_law_divergence(law, grid, **_tolerance(args))),
    ]
    return checks, {"grid_shape": list(grid.shape)}


def _cmd_integrate_section(model: LoadedModel, args) -> tuple[list, dict]:
    grid, commutation = _integrate(model, args, _tolerance(args))
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
        tol = law.ingredients["cartan"].tolerance
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
        check = verify_law_pointwise(family, law, points, **_tolerance(args))
        checks.append(("conserved-along-evolution", check))
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


_FORMAT = _flag("--format", choices=("table", "json"), default="table")
_COMMON = (
    _flag("--model", "bundled model name or path to a .ksym file", required=True),
    _flag("--tol", "override the check tolerance", type=_number(float, 0.0), default=None),
    _flag("--param", "override a model parameter (repeatable)", action="append", default=[],
          metavar="NAME=VALUE"),
    _FORMAT,
)
_SAMPLING = (  # taken, and reported, only by the commands that draw sample points
    _flag("--seed", "sampling seed", type=_number(int, 0), default=42),
    _flag("--samples", "number of sample points", type=_number(int, 1), default=64),
    _flag("--box", "sampling half-width", type=_halfwidth, default=1.0),
)
_LAW = _flag("--law", "law name from the model file", required=True)
_AGAINST = _flag("--against", "comma separated family (default: evolution)")
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
        "regularity": _leaf("fiber Hessian invertibility", _cmd_check_regularity, *_SAMPLING),
        "symmetry": _leaf("does a field commute with the evolution", _cmd_check_symmetry, *_SAMPLING,
                          _flag("--field", "candidate symmetry field", required=True), _AGAINST),
        "pseudosymmetry": _leaf(
            "solve the bracket relation pointwise", _cmd_check_pseudosymmetry, *_SAMPLING,
            _flag("--field", "candidate pseudosymmetry field", required=True),
            _flag("--against", "comma separated target family (default: the evolution itself)"),
            _flag("--evolution", "override the default evolution fields")),
        "cartan": _leaf("form and function invariance", _cmd_check_cartan, *_SAMPLING,
                        _flag("--field", "candidate invariance field", required=True)),
    }),
    "solve": ("solve the evolution equation", {
        "evolution": _leaf("minimum-norm solution at a point", _cmd_solve_evolution, _flag(
            "--at", "comma separated chart point (default: origin)", type=_coordinates)),
    }),
    "verify": ("residual checks", {
        "evolution": _leaf("does a family solve the equation", _cmd_verify_evolution, *_SAMPLING,
                           _AGAINST),
        "law": _leaf("is a law conserved along a family", _cmd_verify_law, *_SAMPLING, _LAW,
                     _AGAINST),
        "divergence": _leaf("divergence of a law over a section grid", _cmd_verify_divergence,
                            _LAW, _AGAINST, *_GRID),
    }),
    "build": ("construct conservation laws", {
        "noether": _leaf("momentum law of an invariance field", _cmd_build_noether, *_SAMPLING,
                         _flag("--field", "invariance field", required=True)),
        "bracket-law": _leaf("contraction law from field arguments", _cmd_build_bracket_law,
                             *_SAMPLING, _flag("--s", "comma separated slot fields", required=True),
                             _flag("--field", "final slot field", required=True)),
    }),
    "integrate": ("integrate section grids", {
        "section": _leaf("fill a section grid by composed flows", _cmd_integrate_section,
                         _AGAINST, *_GRID, _flag("--out", "write the grid as CSV to this path")),
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
        return Report("list-models", None, None, None, [], {"models": bundled_model_rows()})
    model = load_model(resolve_model_path(args.model), _parse_overrides(args.param) or None)
    try:
        checks, extra = COMMANDS[args.group][1][args.action][1](model, args)
    except SectionIntegrationError as exc:  # a section that cannot be built fails its check
        failed = Check("section", False, math.inf, 0.0, (), {"error": str(exc)})
        checks, extra = [("integration", failed)], {}
    return Report(f"{args.group} {args.action}", model.label, getattr(args, "seed", None),
                  getattr(args, "samples", None), checks, extra)


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
