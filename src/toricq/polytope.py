"""Exact half-space geometry for Delzant polytopes.

Polytopes are kept in H-description l_r(x) = <x, nu_r> + lambda_r >= 0 with
integer normals and rational offsets.  Every combinatorial predicate
(vertex enumeration, boundedness, redundancy, the Delzant determinant
condition) is evaluated exactly, in rational arithmetic or, where only
signs matter, in integers on the normals scaled to integer vectors.  The
vertex enumeration records the facets through each vertex, and everything
read off the vertex cones uses that one incidence.
Lattice points are enumerated in integer arithmetic alone, each facet
scaled to integer data once.  Floats only appear downstream in the
analytic modules.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property


class PolytopeError(ValueError):
    """Invalid polytope data or operation."""


# ---------------------------------------------------------------------------
# exact linear algebra over Fraction (dimensions are tiny, <= ~4)

def _eliminate(rows, ncols):
    """Exact Gauss-Jordan elimination on the first ncols columns.

    Returns (reduced rows, pivot columns); columns past ncols are carried
    along, so an augmented [A | B] comes back as [I | A^-1 B] when A is
    invertible.
    """
    M = [[Fraction(e) for e in row] for row in rows]
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(M)) if M[i][col] != 0), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        pivot = M[r][col]
        M[r] = [e / pivot for e in M[r]]
        for i in range(len(M)):
            if i != r and M[i][col] != 0:
                f = M[i][col]
                M[i] = [a - f * b for a, b in zip(M[i], M[r])]
        pivots.append(col)
    return M, pivots


def _det(rows):
    """Exact determinant of a small square matrix of ints or Fractions, by
    cofactor expansion along the first row."""
    if not rows:
        return 1
    return sum((-1) ** j * c * _det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j, c in enumerate(rows[0]) if c)


def _affine_rank(points, dim):
    """Exact dimension of the affine hull of the points (-1 if none)."""
    if not points:
        return -1
    rows = [[a - b for a, b in zip(v, points[0])] for v in points[1:]]
    return len(_eliminate(rows, dim)[1])


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _integer_normal(normal):
    """(s, s * normal) for the LCM s of the entries' denominators: the
    integer vector pointing along normal."""
    s = math.lcm(*(c.denominator for c in normal))
    return s, [int(c * s) for c in normal]


def _primitive(normal):
    """The primitive integer vector pointing along a rational normal."""
    nu = _integer_normal(normal)[1]
    g = math.gcd(*nu)
    if g == 0:
        raise PolytopeError("zero normal has no primitive form")
    return tuple(c // g for c in nu)


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Facet:
    """Affine facet function l(x) = <x, normal> + offset."""

    normal: tuple
    offset: Fraction

    def value(self, x):
        return _dot(self.normal, x) + self.offset


@dataclass(frozen=True)
class HPolytope:
    """Bounded-or-not intersection of half spaces with rational data."""

    dim: int
    facets: tuple

    def __post_init__(self):
        for f in self.facets:
            if len(f.normal) != self.dim:
                raise PolytopeError("normal dimension mismatch")

    @classmethod
    def from_data(cls, dim, facet_data, **fields):
        facets = tuple(
            Facet(tuple(Fraction(c) for c in normal), Fraction(offset))
            for normal, offset in facet_data
        )
        return cls(dim=dim, facets=facets, **fields)

    def contains(self, x):
        return all(f.value(x) >= 0 for f in self.facets)

    @cached_property
    def incidence(self):
        """{vertex: indices of the facets through it}, vertices as tuples of
        Fractions in lexicographic order."""
        n = self.dim
        tried = set()
        out = {}
        for idxs in itertools.combinations(range(len(self.facets)), n):
            M, pivots = _eliminate(
                [self.facets[r].normal + (-self.facets[r].offset,)
                 for r in idxs], n)
            if len(pivots) < n:
                continue
            x = tuple(row[n] for row in M)
            if x in tried:
                continue
            tried.add(x)
            values = [f.value(x) for f in self.facets]
            if all(v >= 0 for v in values):
                out[x] = tuple(r for r, v in enumerate(values) if v == 0)
        return {x: out[x] for x in sorted(out)}

    @cached_property
    def vertices(self):
        """All vertices, lexicographically sorted, as tuples of Fractions."""
        return tuple(self.incidence)

    @cached_property
    def is_bounded(self):
        """Exact recession-cone test: bounded iff {d : N d >= 0} = {0}.

        Once N has rank n the cone is pointed, so it is {0} unless it has
        an extreme ray, the kernel of n - 1 independent rows of N: up to
        sign, the vector of their signed maximal minors.  Minors and sign
        tests run in integers on the normals scaled to integer vectors.
        """
        n = self.dim
        if len(_eliminate([f.normal for f in self.facets], n)[1]) < n:
            return False
        N = [_integer_normal(f.normal)[1] for f in self.facets]
        for rows in itertools.combinations(N, n - 1):
            d = [(-1) ** j * _det([r[:j] + r[j + 1:] for r in rows])
                 for j in range(n)]
            for sign in (1, -1):
                if any(d) and all(sign * _dot(nu, d) >= 0 for nu in N):
                    return False
        return True

    @cached_property
    def is_empty(self):
        if not self.is_bounded:
            raise PolytopeError("emptiness test implemented for bounded sets only")
        return len(self.vertices) == 0

    @cached_property
    def is_full_dimensional(self):
        return _affine_rank(self.vertices, self.dim) == self.dim

    @cached_property
    def barycenter(self):
        verts = self.vertices
        if not verts:
            raise PolytopeError("empty polytope has no barycenter")
        k = Fraction(len(verts))
        return tuple(sum(v[i] for v in verts) / k for i in range(self.dim))

    def bounding_box(self):
        verts = self.vertices
        if not verts:
            raise PolytopeError("empty polytope has no bounding box")
        lo = tuple(min(v[i] for v in verts) for i in range(self.dim))
        hi = tuple(max(v[i] for v in verts) for i in range(self.dim))
        return lo, hi

    def lattice_points(self):
        """Integer points l_r(m) >= 0 for all r, in lexicographic order.

        Each facet is scaled by the LCM s of its normal's denominators, so
        on integer points l_r(m) >= 0 exactly when
        <s nu_r, m> + floor(s lambda_r) >= 0, and the enumeration runs on
        Python ints alone.  Coordinates are fixed in order, carrying each
        facet's partial sum; with m_{<k} fixed, the facets whose last
        nonzero normal entry is at k bound m_k by one floor division each,
        so every fibre is a range of the bounding box and no point is
        tested on its own.
        """
        if not self.is_bounded:
            raise PolytopeError("lattice enumeration needs a bounded polytope")
        if not self.vertices:
            return []
        n = self.dim
        lo, hi = self.bounding_box()
        box = [(math.ceil(a), math.floor(b)) for a, b in zip(lo, hi)]
        normals, offsets, ends_at = [], [], [[] for _ in range(n)]
        for f in self.facets:
            s, nu = _integer_normal(f.normal)
            if not any(nu):
                continue  # a constant, satisfied because there are vertices
            ends_at[max(i for i, c in enumerate(nu) if c)].append(len(normals))
            normals.append(nu)
            offsets.append(math.floor(f.offset * s))
        columns = list(zip(*normals))
        out = []

        def walk(k, prefix, partial):
            a, b = box[k]
            for r in ends_at[k]:
                c = normals[r][k]
                if c > 0:
                    a = max(a, -(partial[r] // c))
                else:
                    b = min(b, partial[r] // -c)
            if k == n - 1:
                out.extend(prefix + (x,) for x in range(a, b + 1))
                return
            for x in range(a, b + 1):
                walk(k + 1, prefix + (x,),
                     [v + c * x for v, c in zip(partial, columns[k])])

        walk(0, (), offsets)
        return out


@dataclass(frozen=True)
class DelzantPolytope(HPolytope):
    """H-polytope with integer primitive normals (candidate Delzant data)."""

    name: str = ""

    def __post_init__(self):
        super().__post_init__()
        for f in self.facets:
            if any(c.denominator != 1 for c in f.normal):
                raise PolytopeError("Delzant normals must be integer vectors")
            if all(c == 0 for c in f.normal):
                raise PolytopeError("zero normal vector")


@dataclass(frozen=True)
class VertexChart:
    """Affine chart x_v = A_v x + lambda_v sending a vertex to the origin."""

    vertex: tuple
    A_v: tuple        # rows = active primitive normals, input facet order
    lambda_v: tuple   # offsets of the active facets

    def apply(self, x):
        return tuple(_dot(row, x) + lam for row, lam in zip(self.A_v, self.lambda_v))


@dataclass(frozen=True)
class FrameChange:
    """Element B of SL(n, Z) whose first p rows pick the subtorus directions."""

    B: tuple
    p: int

    def __post_init__(self):
        n = len(self.B)
        if any(len(row) != n for row in self.B):
            raise PolytopeError("frame change matrix must be square")
        if any(int(e) != e for row in self.B for e in row):
            raise PolytopeError("frame change matrix must be integer")
        if _det(self.B) != 1:
            raise PolytopeError("frame change must have determinant 1")
        if not 1 <= self.p <= n:
            raise PolytopeError("p out of range")


@dataclass
class ValidationReport:
    ok: bool
    verdict: str                 # "ok" | "unbounded" | "empty" | "not delzant" | "redundant" | "bad normals"
    vertex_determinants: list = field(default_factory=list)  # (vertex, det or None)
    violations: list = field(default_factory=list)           # (vertex, det or None)
    redundant_facets: list = field(default_factory=list)
    messages: list = field(default_factory=list)


def validate_delzant(poly: DelzantPolytope) -> ValidationReport:
    """Check boundedness, full dimension, facet essentiality and the
    unimodular vertex condition; returns a report instead of raising."""
    report = ValidationReport(ok=True, verdict="ok")
    for r, f in enumerate(poly.facets):
        if _primitive(f.normal) != f.normal:
            report.ok = False
            report.verdict = "bad normals"
            report.messages.append(
                f"facet {r}: normal {tuple(map(int, f.normal))} is not primitive")
    if not report.ok:
        return report

    if not poly.is_bounded:
        return ValidationReport(ok=False, verdict="unbounded",
                                messages=["recession cone is nontrivial"])
    if poly.is_empty or not poly.is_full_dimensional:
        return ValidationReport(ok=False, verdict="empty",
                                messages=["interior is empty"])

    for r in range(len(poly.facets)):
        on_facet = [v for v, active in poly.incidence.items() if r in active]
        if _affine_rank(on_facet, poly.dim) < poly.dim - 1:
            report.redundant_facets.append(r)
    if report.redundant_facets:
        report.ok = False
        report.verdict = "redundant"
        report.messages.append(f"redundant facets: {report.redundant_facets}")

    for v, active in poly.incidence.items():
        if len(active) != poly.dim:
            det = None
        else:
            det = _det([poly.facets[r].normal for r in active])
        report.vertex_determinants.append((v, det))
        if det is None or abs(det) != 1:
            report.violations.append((v, det))
    if report.violations:
        report.ok = False
        if report.verdict == "ok":
            report.verdict = "not delzant"
        report.messages.append(
            "non-unimodular vertices: "
            + ", ".join(f"{v} det={d}" for v, d in report.violations)
        )
    return report


def lattice_points(poly: HPolytope):
    """Lattice points of a bounded polytope, lexicographically ordered."""
    return poly.lattice_points()


def corrected_polytope(poly_L: DelzantPolytope) -> DelzantPolytope:
    """Shift every offset by 1/2 (half-form correction of the line-bundle
    polytope).  The lattice points are unchanged."""
    report = validate_delzant(poly_L)
    if not report.ok:
        raise PolytopeError(f"input polytope is not Delzant: {report.verdict}")
    for v in poly_L.vertices:
        if any(c.denominator != 1 for c in v):
            raise PolytopeError("line-bundle polytope must have integral vertices")
    facets = tuple(
        Facet(f.normal, f.offset + Fraction(1, 2)) for f in poly_L.facets
    )
    return DelzantPolytope(dim=poly_L.dim, facets=facets,
                           name=poly_L.name + "+1/2" if poly_L.name else "")


def apply_frame_change(poly: DelzantPolytope, fc: FrameChange) -> DelzantPolytope:
    """Transform to the coordinates x~ = B x: normals become (B^T)^-1 nu."""
    n = poly.dim
    if len(fc.B) != n:
        raise PolytopeError("frame change dimension mismatch")
    # solve B^T nu' = nu for every normal at once
    M, _ = _eliminate(
        [[int(fc.B[j][i]) for j in range(n)]
         + [f.normal[i] for f in poly.facets] for i in range(n)], n)
    facets = []
    for k, f in enumerate(poly.facets):
        nu = tuple(row[n + k] for row in M)
        if any(c.denominator != 1 for c in nu):
            raise PolytopeError("frame change produced non-integer normal")
        facets.append(Facet(nu, f.offset))
    return DelzantPolytope(dim=n, facets=tuple(facets), name=poly.name)


def vertex_chart(poly: DelzantPolytope, vertex_index: int) -> VertexChart:
    """Chart at the given vertex (vertices in lexicographic order)."""
    v = poly.vertices[vertex_index]
    active = poly.incidence[v]
    if len(active) != poly.dim:
        raise PolytopeError(
            f"vertex {v} has {len(active)} active facets, expected {poly.dim}")
    rows = tuple(poly.facets[r].normal for r in active)
    det = _det(rows)
    if abs(det) != 1:
        raise PolytopeError(f"vertex {v} is not Delzant: determinant {det}")
    lam = tuple(poly.facets[r].offset for r in active)
    return VertexChart(vertex=v, A_v=rows, lambda_v=lam)


def axis_slice(poly: HPolytope, p: int, c) -> HPolytope:
    """Fix the first p coordinates to c and keep the trailing n-p ones.

    A facet with vanishing trailing normal is dropped if satisfied and kept
    as a negative constant otherwise, which leaves the slice without
    vertices, i.e. empty.
    """
    n = poly.dim
    if not 1 <= p < n:
        raise PolytopeError("need 1 <= p < n for a proper slice")
    c = tuple(Fraction(v) for v in c)
    if len(c) != p:
        raise PolytopeError("fixed-value vector has wrong length")
    facets = []
    for f in poly.facets:
        a, b = f.normal[:p], f.normal[p:]
        lam = _dot(c, a) + f.offset
        if lam >= 0 and all(e == 0 for e in b):
            continue
        facets.append(Facet(b, lam))
    return HPolytope(dim=n - p, facets=tuple(facets))


# ---------------------------------------------------------------------------
# JSON interface


def _parse_offset(v):
    if isinstance(v, str):
        return Fraction(v)
    if isinstance(v, (int, float)):
        return Fraction(v).limit_denominator(10**9)
    raise PolytopeError(f"cannot parse offset {v!r}")


def polytope_from_json(data) -> DelzantPolytope:
    """Build a polytope from {"dim": n, "facets": [{"normal": [...],
    "offset": "p/q" | number}], "name": optional}."""
    if isinstance(data, str):
        data = json.loads(data)
    for key in ("dim", "facets"):
        if key not in data:
            raise PolytopeError(f"missing key {key!r} in polytope JSON")
    dim = data["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise PolytopeError(f"dimension must be an integer, got {dim!r}")
    if dim < 1:
        raise PolytopeError(f"dimension must be at least 1, got {dim}")
    facet_data = []
    for i, f in enumerate(data["facets"]):
        if "normal" not in f or "offset" not in f:
            raise PolytopeError(f"facet {i}: missing 'normal' or 'offset'")
        facet_data.append((f["normal"], _parse_offset(f["offset"])))
    return DelzantPolytope.from_data(dim, facet_data,
                                     name=data.get("name", ""))


def load_polytope(path) -> DelzantPolytope:
    with open(path) as fh:
        return polytope_from_json(json.load(fh))
