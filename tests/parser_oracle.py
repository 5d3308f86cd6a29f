"""The ``ksym`` argument parser written out in full with argparse, one command
after another, kept as the reference that the parser ``ksym.cli`` builds from its command
table is tested against: the same help, usage errors and parsed namespaces,
byte for byte.

The argparse types are copied with it, so the reference stays fixed when the
package's own types change.
"""

from __future__ import annotations

import argparse
import math

import numpy as np


def plain(namespace: argparse.Namespace) -> dict:
    """A namespace's values with arrays as lists, so that two compare with ``==``."""
    return {
        key: value.tolist() if isinstance(value, np.ndarray) else value
        for key, value in vars(namespace).items()
    }


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


def _coordinates(text: str) -> np.ndarray:
    """An argparse type: comma separated finite numbers."""
    try:
        values = np.array([float(s) for s in text.split(",")])
    except ValueError:
        raise argparse.ArgumentTypeError(f"wants comma separated numbers, got {text!r}") from None
    if not np.isfinite(values).all():
        raise argparse.ArgumentTypeError(f"must be finite numbers, got {text!r}")
    return values


def _grid_arguments(p) -> None:
    p.add_argument("--origin", type=_coordinates, help="comma separated start point (default: origin)")
    p.add_argument("--T", type=_number(float, 0.0), default=0.5, help="integration span per axis")
    p.add_argument("--h", type=_number(float, 0.0, strict=True), default=1 / 128, help="grid spacing per axis")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ksym", description="Field-theory model checks from the command line."
    )
    top = parser.add_subparsers(dest="group", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--model", required=True, help="bundled model name or path to a .ksym file")
    common.add_argument("--tol", type=_number(float, 0.0), default=None, help="override the check tolerance")
    common.add_argument(
        "--param", action="append", default=[], metavar="NAME=VALUE",
        help="override a model parameter (repeatable)",
    )
    common.add_argument("--format", choices=("table", "json"), default="table")
    # only the commands that draw sample points take these
    sampled = argparse.ArgumentParser(add_help=False, parents=[common])
    sampled.add_argument("--seed", type=_number(int, 0), default=42, help="sampling seed")
    sampled.add_argument("--samples", type=_number(int, 1), default=64, help="number of sample points")
    sampled.add_argument("--box", type=_number(float, 0.0, strict=True), default=1.0, help="sampling half-width")

    listing = top.add_parser("list-models", help="list bundled models")
    listing.add_argument("--format", choices=("table", "json"), default="table")

    check = top.add_parser("check", help="sampled predicate checks")
    check_sub = check.add_subparsers(dest="action", required=True)
    check_sub.add_parser("regularity", parents=[sampled], help="fiber Hessian invertibility")
    p = check_sub.add_parser("symmetry", parents=[sampled], help="does a field commute with the evolution")
    p.add_argument("--field", required=True, help="candidate symmetry field")
    p.add_argument("--against", help="comma separated family (default: evolution)")
    p = check_sub.add_parser(
        "pseudosymmetry", parents=[sampled], help="solve the bracket relation pointwise"
    )
    p.add_argument("--field", required=True, help="candidate pseudosymmetry field")
    p.add_argument("--against", help="comma separated target family (default: the evolution itself)")
    p.add_argument("--evolution", help="override the default evolution fields")
    p = check_sub.add_parser("cartan", parents=[sampled], help="form and function invariance")
    p.add_argument("--field", required=True, help="candidate invariance field")

    solve = top.add_parser("solve", help="solve the evolution equation")
    solve_sub = solve.add_subparsers(dest="action", required=True)
    p = solve_sub.add_parser("evolution", parents=[common], help="minimum-norm solution at a point")
    p.add_argument("--at", type=_coordinates, help="comma separated chart point (default: origin)")

    verify = top.add_parser("verify", help="residual checks")
    verify_sub = verify.add_subparsers(dest="action", required=True)
    p = verify_sub.add_parser("evolution", parents=[sampled], help="does a family solve the equation")
    p.add_argument("--against", help="comma separated family (default: evolution)")
    p = verify_sub.add_parser("law", parents=[sampled], help="is a law conserved along a family")
    p.add_argument("--law", required=True, help="law name from the model file")
    p.add_argument("--against", help="comma separated family (default: evolution)")
    p = verify_sub.add_parser("divergence", parents=[common], help="divergence of a law over a section grid")
    p.add_argument("--law", required=True, help="law name from the model file")
    p.add_argument("--against", help="comma separated family (default: evolution)")
    _grid_arguments(p)

    build = top.add_parser("build", help="construct conservation laws")
    build_sub = build.add_subparsers(dest="action", required=True)
    p = build_sub.add_parser("noether", parents=[sampled], help="momentum law of an invariance field")
    p.add_argument("--field", required=True, help="invariance field")
    p = build_sub.add_parser("bracket-law", parents=[sampled], help="contraction law from field arguments")
    p.add_argument("--s", required=True, help="comma separated slot fields")
    p.add_argument("--field", required=True, help="final slot field")

    integrate = top.add_parser("integrate", help="integrate section grids")
    integrate_sub = integrate.add_subparsers(dest="action", required=True)
    p = integrate_sub.add_parser("section", parents=[common], help="fill a section grid by composed flows")
    p.add_argument("--against", help="comma separated family (default: evolution)")
    _grid_arguments(p)
    p.add_argument("--out", help="write the grid as CSV to this path")

    return parser
