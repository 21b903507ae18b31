"""Exact half-space geometry for Delzant polytopes.

Polytopes are kept in H-description l_r(x) = <x, nu_r> + lambda_r >= 0 with
integer normals and rational offsets.  Every exact predicate reads one
integer facet form, each facet scaled by the LCM of its denominators.  One
kernel, fraction-free (Bareiss) elimination of integer rows, gives every
determinant, extreme ray and solve; one walk over the facet subsets shares
each prefix's elimination among the vertices (n facets) and extreme-ray
candidates (n - 1 normals) through it.  Vertices are tested by integer dot
products, and the survivors stay integer rows over one common denominator;
ranks, boxes, barycenters and the facets through each vertex are read off
those rows.  A Fraction is built only for a rational that is returned or
printed.  Floats only appear downstream in the analytic modules.
"""

from __future__ import annotations

import itertools
import json
import logging
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

logger = logging.getLogger(__name__)


class PolytopeError(ValueError):
    """Invalid polytope data or operation."""


# ---------------------------------------------------------------------------
# exact linear algebra (dimensions are tiny, <= ~4)

def _step(rows, top, col, prev):
    """One Bareiss step on the pivot row top: each row r becomes
    (top[col] r - r[col] top) / prev, the division exact."""
    d = top[col]
    return [[(d * a - f * b) // prev for a, b in zip(r, top)]
            for r in rows for f in (r[col],)]


def _fraction_free(rows, ncols):
    """Fraction-free (Bareiss) Gauss-Jordan elimination of integer rows on
    their first ncols columns: (rows, pivot columns, sign of the row
    swaps).  Every division is exact; the pivot rows of [A | B] come back
    as d [I | A^-1 B] for the last pivot d, which is sign * det A when A
    is square and invertible."""
    M = [list(r) for r in rows]
    d, pivots, sign = 1, [], 1
    for col in range(ncols):
        k = len(pivots)
        piv = next((i for i in range(k, len(M)) if M[i][col]), None)
        if piv is None:
            continue
        M[k], M[piv] = M[piv], M[k]
        sign = sign if piv == k else -sign
        top, prev, d = M[k], d, M[k][col]
        M = (_step(M[:k], top, col, prev) + [top]
             + _step(M[k + 1:], top, col, prev))
        pivots.append(col)
    return M, pivots, sign


def _kernel(rows, cols):
    """The integer kernel of k Bareiss echelon rows with pivot columns
    cols on the first k + 1 columns: the free entry is the last pivot (1
    for k = 0), and back-substitution is exact by Cramer's rule."""
    k = len(cols)
    v = [0] * (k + 1)
    v[k * (k + 1) // 2 - sum(cols)] = rows[-1][cols[-1]] if k else 1
    for r, c in zip(reversed(rows), reversed(cols)):
        v[c] = -_dot(r, v) // r[c]
    return v


def _det(rows):
    """Exact determinant of a square integer matrix: the last pivot of
    `_fraction_free` times the sign of its row swaps, 0 when the rows are
    dependent, and 1 for the empty matrix."""
    n = len(rows)
    M, pivots, sign = _fraction_free(rows, n)
    if len(pivots) < n:
        return 0
    return sign * M[-1][-1] if n else 1


def _affine_rank(rows, dim):
    """Exact dimension of the affine hull of points given as integer rows
    (X, L) over one common L (-1 if none)."""
    if not rows:
        return -1
    return len(_fraction_free([[a - b for a, b in zip(v, rows[0])]
                               for v in rows[1:]], dim)[1])


def _dot(u, v):
    return sum(map(operator.mul, u, v))


def _slice_incidence(form, n, p):
    """The vertex-facet incidence at(c) of each non-empty slice
    {x : x_{<=p} = c}, c in Z^p and 1 <= p < n, of the polytope with integer
    facet form `form`; the slice's facets r are those with nonzero trailing
    normal.  d = n - p of them with independent normals meet in a point
    y(c), and one elimination of their rows [a_{>p} | b | a_{<=p}] gives
    D^2 l_r(c, y(c)) = k0_r + c_1 k1_r + ... + c_p kp_r in integers."""
    d, solved = n - p, []
    rows = [r[p:] + r[:p] for r in form if any(r[p:n])]
    for T in itertools.combinations(rows, d):
        M, pivots, _ = _fraction_free(T, d)
        if len(pivots) == d:
            D, cols = M[0][0], list(zip(*M))
            solved.append([[D * (D * r[k] - _dot(r, cols[k])) for r in rows]
                           for k in range(d, n + 1)])

    def at(c):
        out = set()
        for values, *K in solved:
            for cj, Kj in zip(c, K):
                values = [v + cj * k for v, k in zip(values, Kj)]
            if min(values) >= 0:
                out.add(tuple(i for i, v in enumerate(values) if v == 0))
        return frozenset(out)

    return at


def _scaled(values):
    """The rationals times the LCM of their denominators: the integer
    vector with the same ratios and signs."""
    s = math.lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (s // v.denominator) for v in values)


def _primitive(nu):
    """The primitive integer vector pointing along an integer vector."""
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
        facets = tuple(Facet(
            tuple(c if type(c) is int else Fraction(c) for c in normal),
            offset if type(offset) is Fraction else Fraction(offset))
            for normal, offset in facet_data)
        return cls(dim=dim, facets=facets, **fields)

    @cached_property
    def integer_facets(self):
        """The integer facet form: facet r as the ints (a_r, b_r), its normal
        and offset times the LCM of their denominators, so l_r >= 0 as
        <a_r, x> + b_r >= 0."""
        return tuple(_scaled(f.normal + (f.offset,)) for f in self.facets)

    def contains(self, x):
        return all(_dot(r, x) + r[-1] >= 0 for r in self.integer_facets)

    @cached_property
    def _walk(self):
        """(kernels (X, D) of the n-subsets' rows (a_r, b_r), kernels of the
        (n-1)-subsets' normals), depth-first in combinations order: a
        child's rows are its parent's after one Bareiss step, and a row
        that reduces to zero leaves the node's subtree."""
        n, points, rays = self.dim, [], []

        def visit(pivots, cols, rows, prev):
            if len(cols) == n - 1:
                rays.append(_kernel(pivots, cols))
            rows = [r for r in rows if any(r[:n])]
            for i, top in enumerate(rows):
                col = next(j for j in range(n) if top[j])
                if len(cols) == n - 1:
                    points.append(_kernel(pivots + [top], cols + [col]))
                else:
                    visit(pivots + [top], cols + [col],
                          _step(rows[i + 1:], top, col, prev), top[col])

        visit([], [], self.integer_facets, 1)
        return points, rays

    @cached_property
    def vertices(self):
        """All vertices, lexicographically sorted, as integer rows (X, L)
        over one common denominator L > 0: the vertex X / L.  n facets with
        independent normals meet in one point X / D, in lowest terms with
        D > 0; it is a vertex when <a_r, X> + b_r D >= 0 for every facet r."""
        form, points = self.integer_facets, set()
        for X in self._walk[0]:     # homogeneous: (X, D)
            g = math.gcd(*X) * (1 if X[-1] > 0 else -1)
            points.add(tuple(c // g for c in X))
        points = [X for X in points if all(_dot(r, X) >= 0 for r in form)]
        L = math.lcm(*(X[-1] for X in points))
        return tuple(sorted(tuple(c * (L // X[-1]) for c in X)
                            for X in points))

    @cached_property
    def incidence(self):
        """The indices of the facets through each vertex, in vertex order."""
        return tuple(tuple(i for i, r in enumerate(self.integer_facets)
                           if not _dot(r, v)) for v in self.vertices)

    @cached_property
    def is_bounded(self):
        """Exact recession-cone test: bounded iff {d : N d >= 0} = {0}.

        N has rank n exactly when the walk reaches an n-subset, and then
        the cone is pointed, so it is {0} unless it has an extreme ray: up
        to sign, the kernel of the normals of an (n-1)-subset of the walk.
        """
        points, rays = self._walk
        return bool(points) and not any(
            all(sign * _dot(r, ray) >= 0 for r in self.integer_facets)
            for ray in rays for sign in (1, -1))

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
        if not self.vertices:
            raise PolytopeError("empty polytope has no barycenter")
        *X, D = map(sum, zip(*self.vertices))
        return tuple(Fraction(c, D) for c in X)

    def _corners(self):
        """The bounding box as integer rows (lo, hi) over the vertices' L."""
        if not self.vertices:
            raise PolytopeError("empty polytope has no bounding box")
        *coords, L = zip(*self.vertices)
        return tuple(map(min, coords)), tuple(map(max, coords)), L[0]

    def bounding_box(self):
        lo, hi, L = self._corners()
        return tuple(tuple(Fraction(c, L) for c in x) for x in (lo, hi))

    def lattice_box(self):
        """[ceil lo_k, floor hi_k] for each coordinate of the bounding box."""
        lo, hi, L = self._corners()
        return [(-(-a // L), b // L) for a, b in zip(lo, hi)]

    def lattice_points(self):
        """Integer points l_r(m) >= 0 for all r, in lexicographic order."""
        return [m + (x,) for m, xs in self.lattice_fibres() for x in xs]

    def lattice_fibres(self):
        """The lattice points as fibres (m_{<n}, range of m_n), in order.

        It runs on the ints of the facet form alone.  Coordinates are fixed
        in order, carrying each facet's partial sum; with m_{<k} fixed, the
        facets whose last nonzero normal entry is at k bound m_k by one
        floor division each, so every fibre is a range of the bounding box
        and no point is tested on its own.
        """
        if not self.is_bounded:
            raise PolytopeError("lattice enumeration needs a bounded polytope")
        if not self.vertices:
            return
        n, box = self.dim, self.lattice_box()
        # constant facets are satisfied, because there are vertices
        rows = [r for r in self.integer_facets if any(r[:n])]
        ends_at = [[] for _ in range(n)]
        for i, r in enumerate(rows):
            ends_at[max(k for k in range(n) if r[k])].append(i)
        columns = list(zip(*rows))

        def walk(k, prefix, partial):
            a, b = box[k]
            for r in ends_at[k]:
                c = rows[r][k]
                if c > 0:
                    a = max(a, -(partial[r] // c))
                else:
                    b = min(b, partial[r] // -c)
            if k == n - 1:
                yield prefix, range(a, b + 1)
                return
            for x in range(a, b + 1):
                yield from walk(k + 1, prefix + (x,),
                                [v + c * x for v, c in zip(partial, columns[k])])

        yield from walk(0, (), columns[n])


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
        object.__setattr__(self, "B", tuple(tuple(map(int, r)) for r in self.B))
        if _det(self.B) != 1:
            raise PolytopeError("frame change must have determinant 1")
        if not 1 <= self.p <= n:
            raise PolytopeError("p out of range")


@dataclass
class ValidationReport:
    ok: bool
    verdict: str                 # "ok" | "unbounded" | "empty" | "not delzant" | "redundant" | "bad normals"
    vertex_determinants: list = field(default_factory=list)  # det or None, in vertex order
    violations: list = field(default_factory=list)           # (vertex, det or None)
    redundant_facets: list = field(default_factory=list)
    messages: list = field(default_factory=list)


def validate_delzant(poly: DelzantPolytope) -> ValidationReport:
    """Check boundedness, full dimension, facet essentiality and the
    unimodular vertex condition; returns a report instead of raising."""
    n = poly.dim
    normals = [_primitive(r[:n]) for r in poly.integer_facets]
    bad = [(r, f.normal) for r, f in enumerate(poly.facets)
           if normals[r] != f.normal]
    if bad:
        return ValidationReport(ok=False, verdict="bad normals", messages=[
            f"facet {r}: normal {tuple(map(int, nu))} is not primitive"
            for r, nu in bad])

    if not poly.is_bounded:
        return ValidationReport(ok=False, verdict="unbounded",
                                messages=["recession cone is nontrivial"])
    if poly.is_empty or not poly.is_full_dimensional:
        return ValidationReport(ok=False, verdict="empty",
                                messages=["interior is empty"])

    report = ValidationReport(ok=True, verdict="ok")
    vertices = list(zip(poly.vertices, poly.incidence))
    for r in range(len(poly.facets)):
        on_facet = [v for v, active in vertices if r in active]
        if _affine_rank(on_facet, n) < n - 1:
            report.redundant_facets.append(r)
    if report.redundant_facets:
        report.ok = False
        report.verdict = "redundant"
        report.messages.append(f"redundant facets: {report.redundant_facets}")

    for v, active in vertices:
        det = _det([normals[r] for r in active]) if len(active) == n else None
        report.vertex_determinants.append(det)
        if det is None or abs(det) != 1:
            report.violations.append(
                (tuple(Fraction(c, v[-1]) for c in v[:-1]), det))
    if report.violations:
        report.ok = False
        if report.verdict == "ok":
            report.verdict = "not delzant"
        report.messages.append(
            "non-unimodular vertices: "
            + ", ".join(f"{v} det={d}" for v, d in report.violations)
        )
    return report


lattice_points = HPolytope.lattice_points


def apply_frame_change(poly: DelzantPolytope, fc: FrameChange) -> DelzantPolytope:
    """Transform to the coordinates x~ = B x: normals become (B^T)^-1 nu."""
    n = poly.dim
    if len(fc.B) != n:
        raise PolytopeError("frame change dimension mismatch")
    # solve B^T nu' = nu for every normal at once; B is in SL(n, Z), so
    # the last pivot d is +-1 and the rows come back as d [I | nu']
    M, _, _ = _fraction_free(
        [[fc.B[j][i] for j in range(n)]
         + [int(f.normal[i]) for f in poly.facets] for i in range(n)], n)
    d = M[-1][n - 1]
    facets = tuple(Facet(tuple(d * row[n + k] for row in M), f.offset)
                   for k, f in enumerate(poly.facets))
    return DelzantPolytope(dim=n, facets=facets, name=poly.name)


def axis_slice(poly: HPolytope, p: int, c) -> HPolytope:
    """Fix the first p coordinates to c and keep the trailing n-p ones.

    A facet with vanishing trailing normal is dropped if satisfied and kept
    as a negative constant otherwise, which leaves the slice without
    vertices, i.e. empty.  Offsets come from the integer facet form.
    """
    n = poly.dim
    if not 1 <= p < n:
        raise PolytopeError("need 1 <= p < n for a proper slice")
    c = tuple(Fraction(v) for v in c)
    if len(c) != p:
        raise PolytopeError("fixed-value vector has wrong length")
    q, C = math.lcm(*(v.denominator for v in c)), _scaled(c)
    facets = []
    for f, r in zip(poly.facets, poly.integer_facets):
        lam = _dot(C, r) + q * r[n]   # q s (lambda + <c, nu_{<=p}>)
        if lam >= 0 and not any(r[p:n]):
            continue
        s = math.lcm(f.offset.denominator, *(v.denominator for v in f.normal))
        facets.append(Facet(f.normal[p:], Fraction(lam, q * s)))
    return HPolytope(dim=n - p, facets=tuple(facets))


# ---------------------------------------------------------------------------
# JSON interface


def _parse_offset(v):
    if isinstance(v, str):
        return Fraction(v)
    if isinstance(v, (int, float)):
        q = Fraction(v).limit_denominator(10**9)
        if q != v:
            logger.warning("offset %r rationalised to %s", v, q)
        return q
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
