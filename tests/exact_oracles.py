"""Exact oracles for the tests.  Independent of toricq's fraction-free
kernel: a cofactor determinant and a Fraction Gauss-Jordan elimination,
both accepting ints or Fractions.  Independent of the slice-type keys of
the level report: the report that builds and classifies every level's
slice on its own.  Independent of the facet-subset walk: the vertex
enumeration and boundedness test that eliminate every facet subset on its
own.  Independent of the integer vertex rows: the vertex incidence, affine
ranks, face fans and simplex volumes in Fractions, as toricq computed them
before its vertices stayed integer rows."""

import itertools
import math
from collections import Counter
from fractions import Fraction

from toricq.polytope import _det, _fraction_free, axis_slice
from toricq.reduction import CLASS_DELZANT, classify_polytope


def cofactor_det(rows):
    """Determinant of a square matrix by cofactor expansion along the first
    row; 1 for the empty matrix."""
    if not rows:
        return 1
    return sum((-1) ** j * c * cofactor_det([r[:j] + r[j + 1:]
                                              for r in rows[1:]])
               for j, c in enumerate(rows[0]) if c)


def gauss_jordan(rows, ncols):
    """Reduced row echelon form on the first ncols columns, in Fractions:
    (rows, pivot columns).  Columns past ncols are carried along."""
    M = [[Fraction(e) for e in row] for row in rows]
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(M)) if M[i][col] != 0), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        M[r] = [e / M[r][col] for e in M[r]]
        for i in range(len(M)):
            if i != r and M[i][col] != 0:
                f = M[i][col]
                M[i] = [a - f * b for a, b in zip(M[i], M[r])]
        pivots.append(col)
    return M, pivots


def per_level_report(poly, p):
    """The rows {c, dim, class} of `reduction_level_report` over the levels
    of the projected bounding box, with each level's slice built, tested
    for full dimension and classified on its own."""
    counts = Counter(m[:p] for m in poly.lattice_points())
    lo, hi = poly.bounding_box()
    ends = [(math.ceil(a), math.floor(b) + 1) for a, b in zip(lo[:p], hi[:p])]
    rows = []
    for c in itertools.product(*(range(a, b) for a, b in ends)):
        dim = counts[c]
        if dim == 0:
            cls = "trivial"
        elif p == poly.dim:
            cls = CLASS_DELZANT
        else:
            sl = axis_slice(poly, p, c)
            cls = (classify_polytope(sl) if sl.is_full_dimensional
                   else "degenerate")
        rows.append({"c": list(c), "dim": dim, "class": cls})
    return rows


def _integer_dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def subset_incidence(poly):
    """`HPolytope.incidence` with one elimination per n-subset of facets:
    the n rows [a_r | -b_r] of a subset with independent normals come back
    as D [I | x], and x is a vertex when every facet value at it is
    nonnegative."""
    n, form = poly.dim, poly.integer_facets
    seen = {}
    for rows in itertools.combinations(form, n):
        M, pivots, _ = _fraction_free([r[:n] + (-r[n],) for r in rows], n)
        if len(pivots) < n:
            continue
        D = M[0][0]
        g = math.gcd(D, *(row[n] for row in M)) * (1 if D > 0 else -1)
        D, X = D // g, tuple(row[n] // g for row in M)
        if (D, X) not in seen:
            values = [_integer_dot(r, X) + r[n] * D for r in form]
            seen[D, X] = (None if min(values) < 0 else
                          tuple(i for i, v in enumerate(values) if v == 0))
    return dict(sorted((tuple(Fraction(c, D) for c in X), active)
                       for (D, X), active in seen.items() if active))


def subset_is_bounded(poly):
    """`HPolytope.is_bounded` with one elimination per (n-1)-subset of
    normals: the normals N must have rank n, and no kernel of n - 1
    independent rows of N may have N d >= 0 for either of its signs."""
    n = poly.dim
    N = [r[:n] for r in poly.integer_facets]
    if len(_fraction_free(N, n)[1]) < n:
        return False
    for rows in itertools.combinations(N, n - 1):
        M, pivots, _ = _fraction_free(rows, n)
        if len(pivots) < n - 1:
            continue
        free = next(j for j in range(n) if j not in pivots)
        d = M[-1][pivots[-1]] if M else 1
        ray = [d if j == free else -M[pivots.index(j)][free]
               for j in range(n)]
        for sign in (1, -1):
            if all(sign * _integer_dot(nu, ray) >= 0 for nu in N):
                return False
    return True


def as_fractions(rows):
    """Integer vertex rows (X, D) as the points X / D, tuples of Fractions."""
    return tuple(tuple(Fraction(c, v[-1]) for c in v[:-1]) for v in rows)


def vertex_incidence(poly):
    """{vertex as Fractions: facets through it} from the integer vertex
    rows, in vertex order."""
    return dict(zip(as_fractions(poly.vertices), poly.incidence))


def _scaled(values):
    s = math.lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (s // v.denominator) for v in values)


def fraction_incidence(poly):
    """{vertex: facets through it} with the vertices as tuples of
    Fractions in lexicographic order, each candidate X / D of the facet
    walk tested by its facet values."""
    form, seen = poly.integer_facets, {}
    for X in poly._walk[0]:     # homogeneous: (X, D)
        g = math.gcd(*X) * (1 if X[-1] > 0 else -1)
        X = tuple(c // g for c in X)
        if X not in seen:
            values = [_integer_dot(r, X) for r in form]
            seen[X] = (None if min(values) < 0 else
                       tuple(i for i, v in enumerate(values) if v == 0))
    return dict(sorted((tuple(Fraction(c, X[-1]) for c in X[:-1]), a)
                       for X, a in seen.items() if a))


def fraction_affine_rank(points, dim):
    """Exact dimension of the affine hull of Fraction points (-1 if none)."""
    if not points:
        return -1
    rows = [_scaled([a - b for a, b in zip(v, points[0])]) for v in points[1:]]
    return len(_fraction_free(rows, dim)[1])


def fraction_simplex_volume(verts):
    """|det| of the edges from the first Fraction vertex over k!."""
    k = len(verts) - 1
    rows = [_scaled([a - b for a, b in zip(v, verts[0])] + [Fraction(1)])
            for v in verts[1:]]
    scale = math.factorial(k) * math.prod(r[k] for r in rows)
    return Fraction(abs(_det([r[:k] for r in rows])), scale)


def fraction_face_fan(poly, verts, rank, incidence=None):
    """`quadrature._face_fan` on Fraction vertices, with Fraction apexes."""
    incidence = incidence or fraction_incidence(poly)
    if rank == 1:
        return [verts]
    faces = []
    for r in range(len(poly.facets)):
        sub = tuple(v for v in verts if r in incidence[v])
        if sub not in faces and fraction_affine_rank(sub, poly.dim) == rank - 1:
            faces.append(sub)
    apex = tuple(sum(c) / len(verts) for c in zip(*verts))
    return [s + (apex,) for face in faces
            for s in fraction_face_fan(poly, face, rank - 1, incidence)]
