"""Symplectic reduction of the torus action on the leading coordinates.

Fixing the first p moment coordinates to a level c produces a slice
polytope in the trailing coordinates.  The slice is classified by the exact
vertex structure of its facet normals: smooth, finite-quotient, or worse.
Level reports classify the slice of every integer level; the weighted-C^3
family carries its reduced potential for curvature probes.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .polytope import (HPolytope, PolytopeError, _det, _primitive,
                       _slice_incidence, axis_slice)
from .potential import SymplecticPotential, abreu_scalar_curvature

CLASS_DELZANT = "delzant"
CLASS_ORBIFOLD = "orbifold"
CLASS_WORSE = "worse"
MAX_LEVELS = 10**6      # in the projected bounding box of a level report


def classify_polytope(poly: HPolytope) -> str:
    """Vertex-by-vertex smoothness class of a rational polytope.

    A vertex with more active facets than the dimension makes the polytope
    "worse"; otherwise every vertex whose primitive active normals have
    determinant +-1 is smooth and any other determinant gives "orbifold".
    """
    d = poly.dim
    worst = CLASS_DELZANT
    for active in poly.incidence:
        normals = {_primitive(poly.integer_facets[r][:d]) for r in active}
        if len(normals) > d:
            return CLASS_WORSE
        if abs(_det(sorted(normals))) != 1:
            worst = CLASS_ORBIFOLD
    return worst


class ReducedStructure(NamedTuple):
    """Reduced potential and smoothness class of a reduction."""

    potential: SymplecticPotential
    classification: str


def reduced_scalar_curvature(structure: ReducedStructure, y) -> float:
    return abreu_scalar_curvature(structure.potential, np.asarray(y, float))


# ---------------------------------------------------------------------------
# the weighted-C^3 family


def c3_reduction(alpha: int, c=0) -> ReducedStructure:
    """Reduction of flat C^3 by the circle of weights (-alpha, -alpha, 1)
    at level c: the quadrant with the extra facet alpha (x1 + x2) + c.

    For c = 0 three facets meet at the origin, so the reduced space is
    never a manifold or orbifold there.
    """
    if alpha <= 0:
        raise ValueError("the weight must be a positive integer")
    c = Fraction(c)
    if c < 0:
        raise ValueError("level must be nonnegative")
    quadrant = HPolytope.from_data(
        2, [((1, 0), 0), ((0, 1), 0), ((alpha, alpha), c)])
    potential = SymplecticPotential(
        [(1.0, 0.0), (0.0, 1.0), (float(alpha), float(alpha))],
        [0.0, 0.0, float(c)], barycenter=[1.0, 1.0])
    return ReducedStructure(potential, classify_polytope(quadrant))


# ---------------------------------------------------------------------------
# dimension bookkeeping


def reduction_level_report(poly, p: int):
    """Per-integral-level rows {c, dim, class}; levels span the integer
    range of the projected bounding box, so empty fibers appear with
    dimension 0 and class "trivial"; a box of more than MAX_LEVELS levels
    is refused before any lattice point is walked, and fibre sizes add up
    the ranges of `lattice_fibres`.  A level with lattice points costs one
    key, its slice's vertex-facet incidence, which fixes class and full
    dimension; one slice per key is built and classified."""
    if not poly.is_bounded:
        raise PolytopeError("lattice enumeration needs a bounded polytope")
    ends = [(a, b + 1) for a, b in poly.lattice_box()[:p]]
    if math.prod(b - a for a, b in ends) > MAX_LEVELS:
        raise PolytopeError(f"more than {MAX_LEVELS} levels to report")
    n, counts, classes, rows = poly.dim, Counter(), {}, []
    for m, xs in poly.lattice_fibres():
        counts.update({m[:p]: len(xs)} if p < n else (m + (x,) for x in xs))
    at = _slice_incidence(poly.integer_facets, n, p) if p < n else None
    for c in itertools.product(*(range(a, b) for a, b in ends)):
        dim = counts[c]
        if dim == 0:
            cls = "trivial"
        elif p == n:
            cls = CLASS_DELZANT
        else:
            # a level with lattice points has a non-empty slice
            key = at(c)
            if key not in classes:
                sl = axis_slice(poly, p, c)
                classes[key] = (classify_polytope(sl)
                                if sl.is_full_dimensional else "degenerate")
            cls = classes[key]
        rows.append({"c": list(c), "dim": dim, "class": cls})
    total = sum(r["dim"] for r in rows)
    return rows, total, total == sum(counts.values())
