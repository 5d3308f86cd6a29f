"""Model files and the bundled models.

Models live in a line-oriented text format: a ``[model]`` section naming the
chart and generating function, an optional ``[params]`` section of numeric
constants, and any number of named ``[field ...]`` and ``[law ...]`` sections.
A model is a bundled one, by name, or any path to a ``.ksym`` file.  The
``[model]`` header is read and checked by one function, whether a model is
loaded or only listed.
"""

from __future__ import annotations

import hashlib
import math
import re
from pathlib import Path

from .calculus import ScalarField, VectorField
from .conservation import ConservationLaw, user_law
from .dynamics import FieldSystem, build_system
from .expr import ChartSpace, ExprError, Num, Record, base_chart, parse_expression

__all__ = [
    "CliUsageError",
    "LoadedModel",
    "ModelFileError",
    "bundled_model_names",
    "bundled_model_rows",
    "load_model",
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


class LoadedModel(Record, eq=False):
    """A parsed model file: chart, optional field system, named extras;
    ``label`` is the name and the start of the file's SHA-256 digest."""

    def __init__(self, name: str, kind: str, chart: ChartSpace, system: FieldSystem | None,
                 params: dict, fields: dict, laws: dict, label: str):
        self._set(name=name, kind=kind, chart=chart, system=system, params=params,
                  fields=fields, laws=laws, label=label)


def _read_sections(raw: bytes):
    """Split the format into its sections, keeping line numbers for errors."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ModelFileError(f"not valid UTF-8: {exc}") from None
    model: dict | None = None
    params: dict = {}
    fields: dict[str, dict] = {}
    laws: dict[str, dict] = {}
    current: dict | None = None
    params_seen = False
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
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


def _need(model_items: dict, key: str) -> tuple[str, int]:
    if key not in model_items:
        raise ModelFileError(f"[model] is missing {key!r}")
    return model_items[key]


def _read_header(model_items: dict) -> tuple[str, str, int, int]:
    """The checked name, kind, n and k of a ``[model]`` section."""
    for key, (_value, line) in model_items.items():
        if key not in ("name", "kind", "n", "k", "function"):
            raise ModelFileError(f"unknown [model] key {key!r}", line)
    name, name_line = _need(model_items, "name")
    if not _IDENT.match(name):
        raise ModelFileError(f"bad model name {name!r}", name_line)
    kind, kind_line = _need(model_items, "kind")
    if kind not in MODEL_KINDS:
        raise ModelFileError(f"kind must be one of {', '.join(MODEL_KINDS)}", kind_line)
    n = _int_item(*_need(model_items, "n"), key="n")
    k = _int_item(*_need(model_items, "k"), key="k")
    if kind == "ode" and "function" in model_items:
        raise ModelFileError(
            "a plain dynamical system takes no function", model_items["function"][1]
        )
    return name, kind, n, k


def load_model(path, overrides: dict | None = None) -> LoadedModel:
    """Parse a model file, applying numeric parameter overrides first."""
    raw = Path(path).read_bytes()
    digest = hashlib.sha256(raw).hexdigest()
    model_items, param_items, field_items, law_items = _read_sections(raw)
    name, kind, n, k = _read_header(model_items)

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
        function, function_line = _need(model_items, "function")
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
        chart=chart,
        system=system,
        params=params,
        fields=fields,
        laws=laws,
        label=f"{name}:{digest[:12]}",
    )


def bundled_model_names() -> tuple[str, ...]:
    return tuple(sorted(p.stem for p in _BUNDLED_DIR.glob("*.ksym")))


def bundled_model_rows() -> list:
    """The bundled models' checked headers and their field and law names,
    read without building any of them."""
    rows = []
    for stem in bundled_model_names():
        model_items, _params, fields, laws = _read_sections(
            (_BUNDLED_DIR / f"{stem}.ksym").read_bytes()
        )
        name, kind, n, k = _read_header(model_items)
        rows.append({
            "name": name,
            "kind": kind,
            "n": n,
            "k": k,
            "fields": sorted(fields),
            "laws": sorted(laws),
        })
    return rows


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
