"""Symplectic reduction of the torus action on the leading coordinates.

Fixing the first p moment coordinates to a level c produces a slice
polytope in the trailing coordinates.  The reduced potential is the plain
restriction of the ambient potential, including facets whose trailing
normal vanishes (they contribute affine terms and keep the restriction
identity g_red(y) = g(c, y) exact).  The slice is classified by the exact
vertex structure of its facet normals: smooth, finite-quotient, or worse.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .polytope import (HPolytope, PolytopeError, _det, _primitive,
                       _slice_incidence, axis_slice)
from .potential import (SymplecticPotential, abreu_scalar_curvature,
                        guillemin_potential)

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


@dataclass(frozen=True)
class ReducedStructure:
    """Slice polytope, restricted potential, and smoothness class."""

    slice: HPolytope
    potential: SymplecticPotential
    classification: str
    level: tuple
    p: int


def reduced_potential(poly, p: int, c) -> SymplecticPotential:
    """Restriction of the ambient potential to x_{1..p} = c, as a potential
    in the trailing coordinates; affine facets are kept."""
    c = [Fraction(v) for v in c]
    for f in poly.facets:
        if (all(e == 0 for e in f.normal[p:])
                and sum(ci * ai for ci, ai in zip(c, f.normal)) + f.offset <= 0):
            raise PolytopeError("level outside the moment polytope projection")
    sl = axis_slice(poly, p, c)
    bary = None if sl.is_empty else [float(v) for v in sl.barycenter]
    return guillemin_potential(poly).restrict(p, c, barycenter=bary)


def reduce(poly, p: int, c) -> ReducedStructure:
    sl = axis_slice(poly, p, c)
    if sl.is_empty:
        raise PolytopeError(f"slice at level {tuple(c)} is empty")
    return ReducedStructure(slice=sl,
                            potential=reduced_potential(poly, p, c),
                            classification=classify_polytope(sl),
                            level=tuple(Fraction(v) for v in c), p=p)


def reduced_scalar_curvature(structure: ReducedStructure, y) -> float:
    return abreu_scalar_curvature(structure.potential, np.asarray(y, float))


# ---------------------------------------------------------------------------
# the weighted-C^3 family


def c3_reduction(alpha1: int, alpha2: int, c=0) -> ReducedStructure:
    """Reduction of flat C^3 by the circle of weights (-alpha1, -alpha2, 1)
    at level c: the quadrant with the extra facet alpha1 x1 + alpha2 x2 + c.

    For c = 0 three facets meet at the origin, so the reduced space is
    never a manifold or orbifold there.
    """
    if alpha1 <= 0 or alpha2 <= 0:
        raise ValueError("weights must be positive integers")
    c = Fraction(c)
    if c < 0:
        raise ValueError("level must be nonnegative")
    quadrant = HPolytope.from_data(
        2, [((1, 0), 0), ((0, 1), 0), ((alpha1, alpha2), c)])
    potential = SymplecticPotential(
        [(1.0, 0.0), (0.0, 1.0), (float(alpha1), float(alpha2))],
        [0.0, 0.0, float(c)], barycenter=[1.0, 1.0])
    return ReducedStructure(slice=quadrant, potential=potential,
                            classification=classify_polytope(quadrant),
                            level=(c,), p=1)


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
