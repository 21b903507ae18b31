"""Layer tracing from outside toricq.

`install()` wraps the public functions of every layer module in place.
Callers bind some names at import (`from .quadrature import integrate`),
so each wrapper is also installed under every module name that refers to
the same function.  The integrand is counted by wrapping the `f` that is
passed to `integrate`.

Each call records a span: name, request id (the command index), parent
span, start and end.  Spans stay in arrays in memory; `write` saves them
once the pass is over and `metrics` reduces them to per-layer numbers.
A span's self time is its duration minus that of its direct children.
"""

from __future__ import annotations

import functools
import math
from array import array
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.req = array("i")
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.request = -1
        self.counts = defaultdict(int)
        self.max_err_over_tol = 0.0

    def open(self, name):
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.req.append(self.request)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i):
        self.end[i] = perf_counter()
        self.stack.pop()

    def span(self, name, fn, before=None, after=None):
        """fn wrapped in a span; before may rewrite the arguments and
        after sees them with the result, both outside the span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            i = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(i)
            if after is not None:
                after(args, kwargs, out)
            return out

        return wrapper

    # -- reduction -----------------------------------------------------------

    def totals(self):
        """name -> (inclusive seconds, self seconds, calls)."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur[i]
        out = defaultdict(lambda: [0.0, 0.0, 0])
        for i in range(n):
            row = out[self.names[self.name[i]]]
            row[0] += dur[i]
            row[1] += dur[i] - child[i]
            row[2] += 1
        return out

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("request,name,parent,start,end\n")
            for i in range(len(self.start)):
                fh.write(f"{self.req[i]},{self.names[self.name[i]]},"
                         f"{self.parent[i]},{self.start[i]!r},{self.end[i]!r}\n")


def _points(x):
    """Number of evaluation points in an (..., n) array."""
    shape = getattr(x, "shape", None)
    return math.prod(shape[:-1]) if shape else 1


def install():
    """Wrap every layer of toricq; returns the Tracer that records them."""
    from toricq import (cli, geodesic, polytope, potential, quadrature,
                        quantization, reduction)

    tr = Tracer()
    modules = (cli, geodesic, polytope, potential, quadrature, quantization,
               reduction)

    def patch(home, attr, name, **hooks):
        """Wrap home.attr and rebind it wherever a module imported it."""
        fn = getattr(home, attr)
        wrapped = tr.span(name, fn, **hooks)
        for mod in modules:
            if getattr(mod, attr, None) is fn:
                setattr(mod, attr, wrapped)
        setattr(home, attr, wrapped)

    def count(key):
        def after(args, kwargs, out):
            tr.counts[key] += _points(args[1])
        return after

    # cli
    patch(cli, "main", "cli.main")
    patch(cli, "emit", "cli.emit")

    # polytope
    for attr in ("load_polytope", "apply_frame_change", "validate_delzant",
                 "axis_slice"):
        patch(polytope, attr, f"polytope.{attr}")

    def lattice_after(args, kwargs, out):
        poly = args[0]
        tr.counts["polytope.lattice_points.hits"] += len(out)
        if poly.vertices:
            lo, hi = poly.bounding_box()
            tr.counts["polytope.lattice_points.candidates"] += math.prod(
                math.floor(b) - math.ceil(a) + 1 for a, b in zip(lo, hi))

    patch(polytope.HPolytope, "lattice_points", "polytope.lattice_points",
          after=lattice_after)
    prop = polytope.HPolytope.__dict__["vertices"]
    vertices = functools.cached_property(tr.span("polytope.vertices", prop.func))
    vertices.__set_name__(polytope.HPolytope, "vertices")
    polytope.HPolytope.vertices = vertices

    # potential
    P = potential.SymplecticPotential
    patch(P, "hess", "potential.hess", after=count("potential.hess.points"))
    patch(P, "facet_values", "potential.facet_values",
          after=count("potential.facet_values.points"))
    patch(P, "third", "potential.third")
    patch(potential, "abreu_scalar_curvature", "potential.abreu_scalar_curvature")

    # geodesic
    for attr in ("polarization_frame_s", "polarization_frame_limit",
                 "connection_form_s", "connection_form_limit",
                 "grassmann_distance"):
        patch(geodesic, attr, f"geodesic.{attr}")

    # quadrature, with the integrand counted through the f it is given
    def integrand_before(args, kwargs):
        f = args[0]

        def integrand(x):
            tr.counts["quadrature.integrand_calls"] += 1
            tr.counts["quadrature.nodes"] += len(x)
            i = tr.open("quantization.integrand")
            try:
                return f(x)
            finally:
                tr.close(i)

        return (integrand,) + tuple(args[1:]), kwargs

    def integrate_after(args, kwargs, res):
        tol = args[2] if len(args) > 2 else kwargs["tol"]
        tr.counts["quadrature.cells"] += res.cells_used
        tr.counts["quadrature.unconverged"] += not res.converged
        tr.max_err_over_tol = max(tr.max_err_over_tol, res.error_estimate / tol)

    patch(quadrature, "integrate", "quadrature.integrate",
          before=integrand_before, after=integrate_after)
    patch(quadrature, "triangulate", "quadrature.triangulate")
    patch(quadrature, "integrate_slice", "quadrature.integrate_slice")

    # quantization
    for attr in ("tilde_norm_squared", "limit_constant", "quantum_basis",
                 "richardson_extrapolate"):
        patch(quantization, attr, f"quantization.{attr}")

    # reduction
    for attr in ("reduction_level_report", "classify_polytope",
                 "c3_reduction", "reduced_scalar_curvature"):
        patch(reduction, attr, f"reduction.{attr}")
    return tr


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(tr, stdout_bytes):
    """Per-layer metrics of one traced pass, keyed as in BENCHMARK.json."""
    t = tr.totals()
    c = tr.counts

    def incl(name):
        return t[name][0] if name in t else 0.0

    def self_s(name):
        return t[name][1] if name in t else 0.0

    def calls(name):
        return t[name][2] if name in t else 0

    cells = c["quadrature.cells"]
    return {
        "cli.main.self_s": self_s("cli.main"),
        "cli.emit.s": incl("cli.emit"),
        "cli.stdout_bytes": stdout_bytes,
        "polytope.load_polytope.s": incl("polytope.load_polytope"),
        "polytope.apply_frame_change.s": incl("polytope.apply_frame_change"),
        "polytope.validate_delzant.s": incl("polytope.validate_delzant"),
        "polytope.vertices.s": incl("polytope.vertices"),
        "polytope.axis_slice.s": incl("polytope.axis_slice"),
        "polytope.axis_slice.calls": calls("polytope.axis_slice"),
        "polytope.lattice_points.s": incl("polytope.lattice_points"),
        "polytope.lattice_points.candidates": c["polytope.lattice_points.candidates"],
        "polytope.lattice_points.hits": c["polytope.lattice_points.hits"],
        "polytope.lattice_points.hit_ratio": _ratio(
            c["polytope.lattice_points.hits"],
            c["polytope.lattice_points.candidates"]),
        "potential.hess.s": incl("potential.hess"),
        "potential.hess.points": c["potential.hess.points"],
        "potential.facet_values.s": incl("potential.facet_values"),
        "potential.facet_values.points": c["potential.facet_values.points"],
        "potential.third.s": incl("potential.third"),
        "potential.abreu_scalar_curvature.s": incl("potential.abreu_scalar_curvature"),
        "potential.abreu_scalar_curvature.calls": calls("potential.abreu_scalar_curvature"),
        "geodesic.polarization_frame_s.s": incl("geodesic.polarization_frame_s"),
        "geodesic.polarization_frame_limit.s": incl("geodesic.polarization_frame_limit"),
        "geodesic.connection_form_s.s": incl("geodesic.connection_form_s"),
        "geodesic.connection_form_limit.s": incl("geodesic.connection_form_limit"),
        "geodesic.grassmann_distance.s": incl("geodesic.grassmann_distance"),
        "quadrature.integrate.calls": calls("quadrature.integrate"),
        "quadrature.integrate.self_s": self_s("quadrature.integrate"),
        "quadrature.triangulate.s": incl("quadrature.triangulate"),
        "quadrature.triangulate.calls": calls("quadrature.triangulate"),
        "quadrature.integrate_slice.s": incl("quadrature.integrate_slice"),
        "quadrature.cells": cells,
        "quadrature.integrand_calls": c["quadrature.integrand_calls"],
        "quadrature.nodes": c["quadrature.nodes"],
        "quadrature.cells_per_s": _ratio(cells, incl("quadrature.integrate")),
        "quadrature.calls_per_cell": _ratio(c["quadrature.integrand_calls"], cells),
        "quadrature.nodes_per_call": _ratio(c["quadrature.nodes"],
                                            c["quadrature.integrand_calls"]),
        "quadrature.unconverged": c["quadrature.unconverged"],
        "quantization.tilde_norm_squared.s": incl("quantization.tilde_norm_squared"),
        "quantization.tilde_norm_squared.calls": calls("quantization.tilde_norm_squared"),
        "quantization.limit_constant.s": incl("quantization.limit_constant"),
        "quantization.limit_constant.calls": calls("quantization.limit_constant"),
        "quantization.integrand.s": self_s("quantization.integrand"),
        "quantization.quantum_basis.s": incl("quantization.quantum_basis"),
        "quantization.richardson_extrapolate.s": incl("quantization.richardson_extrapolate"),
        "quantization.max_err_over_tol": tr.max_err_over_tol,
        "reduction.reduction_level_report.s": incl("reduction.reduction_level_report"),
        "reduction.classify_polytope.s": incl("reduction.classify_polytope"),
        "reduction.classify_polytope.calls": calls("reduction.classify_polytope"),
        "reduction.c3_reduction.s": incl("reduction.c3_reduction"),
        "reduction.reduced_scalar_curvature.s": incl("reduction.reduced_scalar_curvature"),
    }


def self_shares(tr, wall):
    """Share of the pass's wall time spent in each span's own code."""
    return {name: row[1] / wall for name, row in sorted(
        tr.totals().items(), key=lambda kv: -kv[1][1])}
