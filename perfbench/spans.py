"""Span recorder installed in a traced child, around calls into each ksym layer.

Every public function named in ``TARGETS`` is replaced by a wrapper at every
name that binds it: module globals of every ``ksym`` module (so both
``ksym.calculus.directional_derivative`` and the copy that
``ksym.conservation`` imported are wrapped) and class attributes (so
``PotentialEvaluator.__call__``, an alias of ``evaluate``, is wrapped too).

A span is (name, start, end, parent, command id, error).  Spans stay in
flat arrays in memory and are written once, by ``Recorder.dump``, when the
child exits.  The untraced run never imports this module.
"""

from __future__ import annotations

import functools
import os
import struct
import time
from array import array

# module -> public functions and methods timed in the traced run
TARGETS = {
    "expr": ["parse_expression", "sample_points"],
    "calculus": [
        "lie_bracket",
        "lie_derivative_form",
        "exterior_derivative",
        "interior_product",
        "directional_derivative",
        "apply_form",
        "potential_of_exact_one_form",
        "VectorField.evaluate",
        "ScalarField.evaluate",
        "PForm.max_component_at",
        "PotentialEvaluator.evaluate",
    ],
    "bundles": ["tangent_bundle", "cotangent_bundle"],
    "dynamics": [
        "build_system",
        "check_regularity",
        "evolution_residuals",
        "solve_evolution_hamiltonian",
        "solve_evolution_lagrangian",
    ],
    "symmetry": ["is_symmetry", "solve_pseudosymmetry", "is_cartan_symmetry"],
    "conservation": ["build_noether_law", "build_bracket_law", "verify_law_pointwise"],
    "sections": ["integrate_section", "verify_law_divergence", "export_grid_csv"],
    "cli": ["load_model", "Report.to_json"],
}

SPAN_NAMES = [f"{module}.{name}" for module, names in TARGETS.items() for name in names]

# header of the span file: command id and span count
_HEADER = struct.Struct("<qq")
NO_PARENT = -1


def _count_points(args, kwargs, result):
    return len(result)


def _count_nodes(args, kwargs, result):
    count = 1
    for extent in result.shape:
        count *= int(extent)
    return count


def _count_csv_bytes(args, kwargs, result):
    target = kwargs.get("target", args[1] if len(args) > 1 else None)
    if isinstance(target, (str, bytes)) or hasattr(target, "__fspath__"):
        return os.path.getsize(target)
    return 0


# span name -> (counter name, how to read it from a finished call)
COUNTERS = {
    "expr.sample_points": ("expr.sample_points.points", _count_points),
    "sections.integrate_section": ("sections.nodes", _count_nodes),
    "sections.export_grid_csv": ("sections.export_grid_csv.bytes", _count_csv_bytes),
}


class Recorder:
    """Holds one child's spans and counters; one instance per traced command."""

    def __init__(self, command_id: int, clock=time.monotonic):
        self.command_id = command_id
        self.clock = clock
        self.names = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.errors = array("b")
        self.counters = {name: 0 for name, _ in COUNTERS.values()}
        self._stack = [NO_PARENT]

    def wrap(self, fn, name: str):
        name_id = SPAN_NAMES.index(name)
        counter = COUNTERS.get(name)
        names, parents, starts, ends, errors = (
            self.names, self.parents, self.starts, self.ends, self.errors
        )
        stack, clock, counters = self._stack, self.clock, self.counters

        def span(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            errors.append(0)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[index] = 1
                raise
            finally:
                ends[index] = clock()
                stack.pop()
            if counter is not None:
                counters[counter[0]] += counter[1](args, kwargs, result)
            return result

        return functools.update_wrapper(span, fn)

    def install(self, modules: dict, names=SPAN_NAMES) -> None:
        """Wrap every target in ``names`` at every binding in ``modules``.

        ``modules`` maps module names to modules.  A target that no longer
        exists raises LookupError: the traced command then fails, rather
        than reporting that layer's calls and time as 0.
        """
        originals = {}
        missing = []
        for name in names:
            module_name, _, target = name.partition(".")
            owner, _, attr = target.rpartition(".")
            holder = modules.get(f"ksym.{module_name}")
            if holder is not None and owner:
                holder = vars(holder).get(owner)
            fn = vars(holder).get(attr) if holder is not None else None
            if fn is None:
                missing.append(name)
                continue
            originals[id(fn)] = self.wrap(fn, name)
        if missing:
            raise LookupError("traced functions not found: " + ", ".join(missing))
        for module in modules.values():
            scopes = [module] + [
                value for value in vars(module).values()
                if isinstance(value, type) and value.__module__.startswith("ksym")
            ]
            for scope in scopes:
                for attr, value in list(vars(scope).items()):
                    wrapper = originals.get(id(value))
                    if wrapper is not None:
                        setattr(scope, attr, wrapper)

    def dump(self, path) -> None:
        """Write the spans once: a header, then one array per span field."""
        with open(path, "wb") as handle:
            handle.write(_HEADER.pack(self.command_id, len(self.starts)))
            for column in (self.names, self.parents, self.starts, self.ends, self.errors):
                column.tofile(handle)


def load_spans(path):
    """Read a span file back: (command id, names, parents, starts, ends, errors)."""
    with open(path, "rb") as handle:
        command_id, count = _HEADER.unpack(handle.read(_HEADER.size))
        columns = []
        for typecode in "iiddb":
            column = array(typecode)
            column.fromfile(handle, count)
            columns.append(column)
    return (command_id, *columns)
