"""Command-line surface: validation, bases, norm tables, flow datasets,
reductions, and curvature probes, emitted as deterministic CSV or JSON.

All floating-point values are printed with 17 significant digits so reports
round-trip exactly; repeated runs with the same configuration are
bit-identical.  Exit codes: 0 success, 1 domain failure (validation or
audit), 2 usage or input error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import gc
import io
import json
import math
import sys

import numpy as np

from . import geodesic, polytope, quantization, reduction
from .potential import (RAISE, DomainError, PointError,
                        abreu_scalar_curvature, guillemin_potential, to_float)
from .quadrature import cell_budget

# a command's cyclic collections skip the heap that the imports built
gc.freeze()

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2


class UsageError(ValueError):
    """Bad flag values or malformed input files."""


def fmt(x) -> str:
    """17-significant-digit float formatting; integers stay integers."""
    if isinstance(x, int):
        return str(x)
    return "%.17g" % float(x)


# ---------------------------------------------------------------------------
# flag parsing


def parse_values(flag, text, convert, sep=","):
    """The parts of a flag's text between seps, each converted; a part that
    does not convert is a UsageError naming the flag."""
    try:
        return [convert(v) for v in text.split(sep)]
    except ValueError:
        raise UsageError(f"could not parse {flag} {text!r}")


def parse_s_grid(text):
    grid = parse_values("--s-grid", text, float)
    if not grid or any(s < 0 or not math.isfinite(s) for s in grid):
        raise UsageError("--s-grid needs nonnegative finite values")
    if any(a >= b for a, b in zip(grid, grid[1:])):
        raise UsageError("--s-grid must be strictly increasing")
    return grid


def positive_int(text):
    """argparse type of --alpha: a positive int within the float range;
    argparse reports the ValueError."""
    value = int(text)
    if not 0 < value <= sys.float_info.max:
        raise ValueError(text)
    return value


@functools.cache
def build_parser():
    """The CLI's parser, built once per process, on first use."""
    ap = argparse.ArgumentParser(
        prog="toricq",
        description="Geometric quantization of toric manifolds along "
                    "geodesic rays of symplectic potentials.")
    ap.add_argument("--input", help="polytope JSON file")
    ap.add_argument("--command", required=True,
                    choices=["validate", "points", "norms", "flow",
                             "reduce", "curvature"])
    ap.add_argument("--p", type=int, default=1,
                    help="number of deformed (leading) coordinates")
    ap.add_argument("--B", help="SL(n,Z) frame change, rows 'a,b;c,d'")
    ap.add_argument("--s-grid", default="10,20,40",
                    help="comma-separated increasing geodesic times")
    ap.add_argument("--m", help="single lattice point 'm1;m2' to restrict to")
    ap.add_argument("--alpha", type=positive_int,
                    help="weight of the hyperplane-reduction family")
    ap.add_argument("--point", help="evaluation point 'x1,x2'")
    ap.add_argument("--tol", type=float, default=1e-6,
                    help="quadrature tolerance")
    ap.add_argument("--format", default="csv", choices=["csv", "json"])
    ap.add_argument("--out", help="output path (default stdout)")
    return ap


def load_input(args):
    if not args.input:
        raise UsageError("--input is required for this command")
    try:
        poly = polytope.load_polytope(args.input)
    except OSError as exc:
        raise UsageError(f"cannot read {args.input}: {exc.strerror}")
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise UsageError(f"malformed polytope JSON: {exc}")
    if args.B:
        try:
            B = parse_values("--B", args.B, lambda row: tuple(
                int(v) for v in row.split(",")), ";")
            poly = polytope.apply_frame_change(poly, polytope.FrameChange(B))
        except polytope.PolytopeError as exc:
            raise UsageError(f"bad --B: {exc}")
        check_p(poly, args.p)
    return poly


def check_p(poly, p):
    if not 1 <= p <= poly.dim:
        raise UsageError(f"--p {p} out of range for dimension {poly.dim}")


def point_arg(args, pot, poly=None):
    """The --point, with one coordinate per axis; without it, the barycenter
    of the polytope's vertices (the potential's reference point without a
    polytope), which must be interior."""
    if args.point is not None:
        x = np.array(parse_values("--point", args.point, float))
        if len(x) != pot.dim:
            raise UsageError(
                f"--point has {len(x)} coordinates, expected {pot.dim}")
        if not np.all(np.isfinite(x)):
            raise UsageError("--point needs finite coordinates")
        return x
    x = (pot.barycenter if poly is None
         else np.array([to_float(c) for c in poly.barycenter]))
    if not pot.is_interior(x):
        raise DomainError(
            f"the barycenter of the vertices ({';'.join(fmt(v) for v in x)})"
            " is not interior; give a point with --point")
    return x


# ---------------------------------------------------------------------------
# table emission


def emit(columns, rows, args) -> str:
    """Render rows (already string-formatted) as CSV or a mirroring JSON,
    json.dumps(..., indent=2) text."""
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)
        return buf.getvalue()
    return json.dumps({"columns": columns, "rows": rows}, indent=2) + "\n"


def write_output(text, args):
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {args.out}: {exc.strerror}")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# commands


def cmd_validate(args):
    poly = load_input(args)
    report = polytope.validate_delzant(poly)
    payload = {"ok": report.ok, "verdict": report.verdict,
               "messages": list(report.messages),
               "violations": [[ [str(c) for c in v], None if d is None else int(d)]
                              for v, d in report.violations]}
    if args.format == "json":
        write_output(json.dumps(payload, indent=2) + "\n", args)
    else:
        lines = [f"verdict,{report.verdict}", f"ok,{report.ok}"]
        lines += [f"message,{m}" for m in report.messages]
        write_output("\n".join(lines) + "\n", args)
    return EXIT_OK if report.ok else EXIT_DOMAIN


def cmd_points(args):
    poly = load_input(args)
    check_p(poly, args.p)
    basis = quantization.quantum_basis(poly, args.p)
    columns = ["index", "m", "H"]
    rows = [[el.index, ";".join(str(c) for c in el.m),
             fmt(el.hamiltonian_value)] for el in basis]
    write_output(emit(columns, rows, args), args)
    return EXIT_OK


def cmd_norms(args):
    poly = load_input(args)
    check_p(poly, args.p)
    grid = parse_s_grid(args.s_grid)
    if 0 in grid:
        raise UsageError("--s-grid for norms needs positive values")
    if args.m is None:
        points = [el.m for el in quantization.quantum_basis(poly, args.p)]
    else:
        # membership, with the errors that enumerating the lattice gives
        if not poly.is_bounded:
            raise polytope.PolytopeError(
                "lattice enumeration needs a bounded polytope")
        m = tuple(parse_values("--m", args.m, int, ";"))
        if len(m) != poly.dim or not poly.contains(m):
            raise UsageError(f"--m {m} is not a lattice point of the polytope")
        points = [m]
    columns = ["m", "s", "norm2", "tilde_norm2", "c_m", "limit", "pass"]
    rows = []
    for m in points:
        mtxt = ";".join(str(c) for c in m)
        rep = quantization.verify_norm_limit(poly, args.p, m, grid,
                                             tol=args.tol)
        cm, limit = fmt(rep.c_m), fmt(rep.target)
        for s, norm2, res in zip(grid, rep.squared_norms, rep.results):
            rows.append([mtxt, fmt(s), fmt(norm2), fmt(res.value), cm, limit,
                         str(res.converged)])
        rows.append([mtxt, "inf", "", fmt(rep.extrapolated), cm, limit,
                     str(rep.passed)])
    write_output(emit(columns, rows, args), args)
    return EXIT_OK


def cmd_flow(args):
    poly = load_input(args)
    check_p(poly, args.p)
    grid = parse_s_grid(args.s_grid)
    base = guillemin_potential(poly)
    x = point_arg(args, base, poly)
    ray = geodesic.MabuchiRay(base, args.p, x)
    limit_frame = geodesic.polarization_frame_limit(ray)
    columns = ["point", "s", "frame_distance", "connection_gap"]
    ptxt = ";".join(fmt(v) for v in x)
    rows = []
    for s in grid:
        dist = geodesic.grassmann_distance(
            geodesic.polarization_frame_s(ray, s), limit_frame)
        # the increment is imaginary: its norm with no squares to underflow
        increment = geodesic.connection_form_s(ray, s)[1]
        gap = np.hypot.reduce(increment.imag, initial=0)
        rows.append([ptxt, fmt(s), fmt(dist), fmt(gap)])
    write_output(emit(columns, rows, args), args)
    return EXIT_OK


def cmd_reduce(args):
    if args.alpha is not None:
        structure = reduction.c3_reduction(args.alpha)
        s11 = reduction.reduced_scalar_curvature(structure, [1.0, 1.0])
        s22 = reduction.reduced_scalar_curvature(structure, [2.0, 2.0])
        columns = ["alpha", "class", "S_at_1_1", "S_at_2_2"]
        rows = [[fmt(args.alpha), structure.classification, fmt(s11),
                 fmt(s22)]]
        write_output(emit(columns, rows, args), args)
        return EXIT_OK
    poly = load_input(args)
    check_p(poly, args.p)
    levels, total, ok = reduction.reduction_level_report(poly, args.p)
    columns = ["c", "dim", "class"]
    rows = [[";".join(str(v) for v in row["c"]), str(row["dim"]),
             row["class"]] for row in levels]
    rows.append(["total", str(total), "ok" if ok else "mismatch"])
    write_output(emit(columns, rows, args), args)
    return EXIT_OK if ok else EXIT_DOMAIN


def cmd_curvature(args):
    poly = None
    if args.alpha is not None:
        structure = reduction.c3_reduction(args.alpha)
        pot = structure.potential
    else:
        poly = load_input(args)
        pot = guillemin_potential(poly)
    x = point_arg(args, pot, poly)
    S = abreu_scalar_curvature(pot, x)
    columns = ["point", "scalar_curvature"]
    rows = [[";".join(fmt(v) for v in x), fmt(S)]]
    write_output(emit(columns, rows, args), args)
    return EXIT_OK


COMMANDS = {"validate": cmd_validate, "points": cmd_points,
            "norms": cmd_norms, "flow": cmd_flow, "reduce": cmd_reduce,
            "curvature": cmd_curvature}


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else 0
    if not (args.tol > 0 and math.isfinite(args.tol)):
        print("error: --tol must be positive and finite", file=sys.stderr)
        return EXIT_USAGE
    try:
        cell_budget()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        with np.errstate(**RAISE):
            return COMMANDS[args.command](args)
    except (UsageError, PointError) as exc:
        # bad flag values or input, or a --point outside the interior
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (polytope.PolytopeError, DomainError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
