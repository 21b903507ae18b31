"""Exact oracles for the tests.  Independent of toricq's fraction-free
kernel: a cofactor determinant and a Fraction Gauss-Jordan elimination,
both accepting ints or Fractions.  Independent of the slice-type keys of
the level report: the report that builds and classifies every level's
slice on its own."""

import itertools
import math
from collections import Counter
from fractions import Fraction

from toricq.polytope import axis_slice
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
