"""Seeded workload generators for the toricq benchmark.

A workload is a list of commands for ``toricq.cli.main(argv)``.  Each
command carries an expectation that only the benchmark reads: toricq sees
nothing but the polytope JSON files written here and the argv.

Every polytope belongs to a family with a closed-form definition (segment,
box, simplex, Hirzebruch trapezoid, trapezoid prism, weighted simplex), so
lattice points, Delzant verdicts and slice classes are known by
construction and never taken from toricq.

The seed moves shapes by integer translations, picks lattice points,
frame changes, evaluation points, p values and output formats.  It does not
pick shape sizes: the cost of a pass must not depend on the seed, or the
run-to-run spread over seeds would swamp the bounds in BENCHMARK.json.

On norms-wide the seed moves each shape to one of its mirror positions,
shift_i in {0, -hi_i}.  Segments and boxes are symmetric, so every seed
gives the same multiset of |m_{<=p}|^2 and the same commands overflow (see
`overflows`); the other shapes stay below the overflow threshold in every
position.  Every seed thus has the same known failures, and two sets of
runs over different seeds report the same failed count.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from reference import norm_value

HALF = Fraction(1, 2)
WORKLOADS = ("norms-deep", "norms-wide", "reports")

DEEP_GRID = "10,20,40,80"
DEEP_TOL = "1e-06"
WIDE_GRID = "10,20,40"
# relative tolerance behind each norms-wide shape's --tol; with it the
# integrals of that workload end with tens to a few hundred cells each
WIDE_RTOL = 1e-2
FLOW_GRID = "1,10,100,1000"

# a float overflows math.exp above this argument
EXP_LIMIT = math.log(sys.float_info.max)


# ---------------------------------------------------------------------------
# polytope families


def _unit(n, i, sign=1):
    return tuple(sign * int(j == i) for j in range(n))


def family_facets(family, params):
    """Integer normals and offsets of the line-bundle polytope."""
    if family == "segment":
        (L,) = params
        return (((1,), 0), ((-1,), L))
    if family == "box":
        return tuple(f for i, a in enumerate(params)
                     for f in ((_unit(len(params), i), 0),
                               (_unit(len(params), i, -1), a)))
    if family == "simplex":
        n, k = params
        return tuple((_unit(n, i), 0) for i in range(n)) + (((-1,) * n, k),)
    if family == "hirzebruch":
        a, b, k = params
        return (((1, 0), 0), ((0, 1), 0), ((0, -1), b), ((-1, -k), a))
    if family == "prism":
        a, b, k, h = params
        return (((1, 0, 0), 0), ((0, 1, 0), 0), ((0, -1, 0), b),
                ((-1, -k, 0), a), ((0, 0, 1), 0), ((0, 0, -1), h))
    if family == "weighted":
        # not Delzant: the last normal has a 2 in its last entry
        n, k = params
        return (tuple((_unit(n, i), 0) for i in range(n))
                + (((-1,) * (n - 1) + (-2,), 2 * k),))
    raise ValueError(f"unknown family {family!r}")


def family_box(family, params):
    """Integer bounding box (lo, hi) of the line-bundle polytope."""
    if family == "segment":
        return (0,), params
    if family == "box":
        return (0,) * len(params), tuple(params)
    if family == "simplex":
        n, k = params
        return (0,) * n, (k,) * n
    if family == "hirzebruch":
        a, b, _ = params
        return (0, 0), (a, b)
    if family == "prism":
        a, b, _, h = params
        return (0, 0, 0), (a, b, h)
    if family == "weighted":
        n, k = params
        return (0,) * n, (2 * k,) * (n - 1) + (k,)
    raise ValueError(f"unknown family {family!r}")


def family_points(family, params):
    """Lattice points by the defining integer inequalities, lexicographic."""
    facets = family_facets(family, params)
    lo, hi = family_box(family, params)
    return [m for m in itertools.product(*(range(a, b + 1)
                                           for a, b in zip(lo, hi)))
            if all(sum(c * x for c, x in zip(nu, m)) + lam >= 0
                   for nu, lam in facets)]


def slice_class(family, params, p, c, dim):
    """Smoothness class that `reduce --p p` must print for level c (in the
    untranslated frame) whose fibre holds dim lattice points."""
    if dim == 0:
        return "trivial"
    n = len(family_box(family, params)[0])
    if p == n or family == "box":
        return "delzant"
    if family == "simplex":
        return "delzant" if sum(c) < params[1] else "degenerate"
    if family in ("hirzebruch", "prism") and p == 1:
        return "delzant" if c[0] < params[0] else "degenerate"
    if family == "prism" and p == 2:
        return "delzant"
    raise ValueError(f"no slice rule for {family} with p={p}")


@dataclass(frozen=True)
class Shape:
    """A family member, half-form corrected or not, moved by `shift`."""

    family: str
    params: tuple
    shift: tuple
    corrected: bool = False

    @property
    def dim(self):
        return len(self.shift)

    @property
    def key(self):
        """Names the untranslated shape; references are translation
        invariant, so they are cached under this key."""
        return f"{self.family}{list(self.params)}{'+1/2' if self.corrected else ''}"

    def canonical_facets(self):
        extra = HALF if self.corrected else 0
        return [(nu, Fraction(lam) + extra)
                for nu, lam in family_facets(self.family, self.params)]

    def facets(self):
        """Facets of the translated shape: l(x) = <nu, x - shift> + lam."""
        return [(nu, lam - sum(a * t for a, t in zip(nu, self.shift)))
                for nu, lam in self.canonical_facets()]

    def points(self):
        return [tuple(a + t for a, t in zip(m, self.shift))
                for m in family_points(self.family, self.params)]

    def to_json(self, B=None):
        """Polytope JSON; with B, the input is written in the frame that
        `--B B` maps back onto this shape (normals B^T nu)."""
        out = []
        for nu, lam in self.facets():
            if B is not None:
                nu = tuple(sum(B[j][i] * nu[j] for j in range(self.dim))
                           for i in range(self.dim))
            out.append({"normal": list(nu), "offset": str(lam)})
        return {"dim": self.dim, "facets": out}


# the corrected square [-1/2, 3/2]^2: few integrals with deep adaptive
# frontiers whose cell count grows with s
DEEP_SQUARE = Shape("box", (1, 1), (0, 0), corrected=True)
# small corrected shapes in the style of toricq.library.shipped_polytopes:
# hundreds of shallow integrals, plus slice integrals for p < n
WIDE_CATALOG = tuple(
    [Shape("segment", (L,), (0,), True) for L in range(1, 7)]
    + [Shape(family, params, (0, 0), True) for family, params in (
        ("box", (1, 2)), ("box", (2, 2)), ("simplex", (2, 1)),
        ("simplex", (2, 2)), ("hirzebruch", (2, 1, 1)),
        ("hirzebruch", (3, 1, 2)))])


def norms_cases():
    """(untranslated shape, p, s-grid) of every norms command any seed
    can generate; the reference table covers exactly these."""
    yield DEEP_SQUARE, 1, DEEP_GRID
    for shape in WIDE_CATALOG:
        for p in sorted({1, shape.dim}):
            yield shape, p, WIDE_GRID


# ---------------------------------------------------------------------------
# commands


@dataclass
class Command:
    """One `toricq` invocation and what its output must satisfy."""

    argv: list
    kind: str
    expect: dict


def _fmt_m(m):
    return ";".join(str(c) for c in m)


def _random_unimodular(rng, n):
    """Product of elementary row operations: integer, determinant 1."""
    B = [list(_unit(n, i)) for i in range(n)]
    for _ in range(3):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        B[i] = [a + c * b for a, b in zip(B[i], B[j])]
    return B


def _interior_point(rng, shape, margin=Fraction(1, 4)):
    """Point with three decimals whose facet values all exceed margin."""
    lo, hi = family_box(shape.family, shape.params)
    facets = shape.canonical_facets()
    while True:
        y = [Fraction(rng.randrange(1000 * a, 1000 * b + 1), 1000)
             for a, b in zip(lo, hi)]
        if all(sum(c * v for c, v in zip(nu, y)) + lam > margin
               for nu, lam in facets):
            return [float(v + t) for v, t in zip(y, shape.shift)]


def _point_arg(x):
    return ",".join(repr(v) for v in x)


class Workload:
    """Commands of one workload and seed, with their input files."""

    def __init__(self, name, seed, workdir):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}")
        self.workdir = Path(workdir)
        self.rng = random.Random(f"{name}:{seed}")
        self.files = {}
        self.commands = []
        getattr(self, "_" + name.replace("-", "_"))()

    def _file(self, shape, B=None):
        """Path of the input file for shape (written in frame B)."""
        text = json.dumps(shape.to_json(B))
        for path, data in self.files.items():
            if data == text:
                return path
        path = str(self.workdir / f"p{len(self.files):02d}.json")
        self.files[path] = text
        return path

    def _format(self):
        return self.rng.choice(("csv", "json"))

    def write_inputs(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        for path, text in self.files.items():
            Path(path).write_text(text + "\n")

    # -- norms ---------------------------------------------------------------

    def _norms(self, shape, p, m, grid, tol):
        path = self._file(shape)
        argv = ["--input", path, "--command", "norms", "--p", str(p),
                f"--m={_fmt_m(m)}", "--s-grid", grid, "--tol", tol,
                "--format", self._format()]
        canon = tuple(a - t for a, t in zip(m, shape.shift))
        self.commands.append(Command(argv, "norms", {
            "shape": shape, "p": p, "m": m, "canon": canon,
            "grid": [float(s) for s in grid.split(",")], "tol": float(tol)}))

    def _norms_deep(self):
        m = self.rng.choice(DEEP_SQUARE.points())
        self._norms(DEEP_SQUARE, 1, m, DEEP_GRID, DEEP_TOL)

    def _norms_wide(self):
        for base in WIDE_CATALOG:
            shape = Shape(base.family, base.params,
                          tuple(self.rng.choice((0, -b)) for b in
                                family_box(base.family, base.params)[1]),
                          True)
            tol = wide_tol(shape)
            for p in sorted({1, shape.dim}):
                for m in shape.points():
                    self._norms(shape, p, m, WIDE_GRID, tol)
        self.rng.shuffle(self.commands)

    # -- reports -------------------------------------------------------------

    REPORT_SHAPES = (
        # (family, params, reduce --p, under a frame change)
        ("simplex", (2, 20), 1, False),
        ("hirzebruch", (30, 10, 2), 1, True),
        ("simplex", (3, 10), 2, True),
        ("box", (4, 5, 6), 1, True),
        ("prism", (8, 4, 1, 5), 2, False),
        ("simplex", (4, 7), 1, False),
        ("box", (3, 3, 4, 4), 3, True),
    )
    NON_DELZANT = ((("weighted", (2, 10)), False), (("weighted", (3, 6)), True))

    def _shifted(self, family, params):
        n = len(family_box(family, params)[0])
        return Shape(family, params,
                     tuple(self.rng.randint(-3, 3) for _ in range(n)))

    def _report(self, shape, kind, argv, expect, B):
        path = self._file(shape, B)
        argv = ["--input", path] + argv + ["--format", self._format()]
        if B is not None:
            argv.append("--B=" + ";".join(",".join(str(v) for v in row)
                                          for row in B))
        self.commands.append(Command(argv, kind, dict(expect, shape=shape)))

    def _reports(self):
        for family, params, rp, framed in self.REPORT_SHAPES:
            shape = self._shifted(family, params)
            n = shape.dim
            B = _random_unimodular(self.rng, n) if framed else None
            self._report(shape, "validate", ["--command", "validate"],
                         {"verdict": "ok", "code": 0}, B)
            p = self.rng.randint(1, n)
            self._report(shape, "points", ["--command", "points", "--p", str(p)],
                         {"p": p}, B)
            self._report(shape, "reduce", ["--command", "reduce", "--p", str(rp)],
                         {"p": rp}, B)
            x = _interior_point(self.rng, shape)
            p = self.rng.randint(1, n)
            self._report(shape, "flow",
                         ["--command", "flow", "--p", str(p), "--s-grid",
                          FLOW_GRID, f"--point={_point_arg(x)}"],
                         {"p": p, "x": x,
                          "grid": [float(s) for s in FLOW_GRID.split(",")]}, B)
            x = _interior_point(self.rng, shape)
            self._report(shape, "curvature",
                         ["--command", "curvature", f"--point={_point_arg(x)}"],
                         {"x": x}, B)
        for (family, params), framed in self.NON_DELZANT:
            shape = self._shifted(family, params)
            B = _random_unimodular(self.rng, shape.dim) if framed else None
            self._report(shape, "validate", ["--command", "validate"],
                         {"verdict": "not delzant", "code": 1}, B)
            self._report(shape, "points", ["--command", "points", "--p", "1"],
                         {"p": 1}, B)
        for alpha in self.rng.sample(range(1, 9), 2):
            self.commands.append(Command(
                ["--command", "reduce", "--alpha", str(alpha),
                 "--format", self._format()],
                "reduce-alpha", {"alpha": alpha}))
            x = [self.rng.randrange(100, 3001) / 1000 for _ in range(2)]
            self.commands.append(Command(
                ["--command", "curvature", "--alpha", str(alpha),
                 f"--point={_point_arg(x)}", "--format", self._format()],
                "curvature-alpha", {"alpha": alpha, "x": x}))
        self.rng.shuffle(self.commands)


def wide_tol(shape):
    """--tol for a norms-wide shape: WIDE_RTOL times the smallest p = n
    limit prod_r l_r(m)^{l_r(m)} over its lattice points, rounded down to
    a power of ten."""
    scale = min(norm_value(shape.canonical_facets(), shape.dim, m, None)
                for m in family_points(shape.family, shape.params))
    return f"{10.0 ** math.floor(math.log10(WIDE_RTOL * scale)):g}"


def overflows(expect):
    """True when `norms` must hit the known OverflowError: it computes
    exp(2 s H(m)) in floats, which overflows once s |m_{<=p}|^2 > ~709.78."""
    h2 = sum(c * c for c in expect["m"][:expect["p"]])
    return any(s * h2 > EXP_LIMIT for s in expect["grid"])
