"""Deterministic adaptive quadrature over polytopes and their slices.

Polytopes of any dimension are triangulated by a recursive face fan from
exact barycenters; each simplex carries an open (interior-node) rule of
degree 5, so integrands that are only continuous up to the boundary are
never sampled on it.  Refinement bisects the cell with the largest
two-level error estimate; accumulation is done in fixed cell-insertion
order with compensated summation, which makes repeated runs bit-identical.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .polytope import PolytopeError, _affine_rank, _det, axis_slice

DEFAULT_CELL_BUDGET = 200_000
_BUDGET_ENV = "TORICQ_CELL_BUDGET"


def cell_budget():
    """The cell cap: TORICQ_CELL_BUDGET if set, else the default."""
    value = os.environ.get(_BUDGET_ENV)
    if not value:
        return DEFAULT_CELL_BUDGET
    try:
        budget = int(value)
    except ValueError:
        budget = 0
    if budget <= 0:
        raise ValueError(
            f"{_BUDGET_ENV} must be a positive integer, got {value!r}")
    return budget


# ---------------------------------------------------------------------------
# degree-5 rules with strictly interior nodes, in barycentric coordinates


def _rule_1d():
    t, w = np.polynomial.legendre.leggauss(3)
    t = 0.5 * (t + 1.0)
    bary = np.stack([1.0 - t, t], axis=1)
    return bary, 0.5 * w  # weights normalized to sum 1


def _rule_triangle():
    s15 = math.sqrt(15.0)
    a = (6.0 - s15) / 21.0
    b = (6.0 + s15) / 21.0
    wa = (155.0 - s15) / 1200.0
    wb = (155.0 + s15) / 1200.0
    pts = [(1 / 3, 1 / 3, 1 / 3, 9.0 / 40.0)]
    for u, w in ((a, wa), (b, wb)):
        pts += [(u, u, 1 - 2 * u, w), (u, 1 - 2 * u, u, w), (1 - 2 * u, u, u, w)]
    arr = np.array(pts)
    return arr[:, :3], arr[:, 3]


def _rule_grundmann_moller(dim, s=2):
    """Grundmann-Moller rule of degree 2s+1; all nodes strictly interior."""
    d = dim
    pts = []
    wts = []
    for i in range(s + 1):
        denom = d + 1 + 2 * (s - i)
        w = ((-1) ** i / 2 ** (2 * s)
             * denom ** (2 * s + 1)
             / (math.factorial(i) * math.factorial(d + 2 * s + 1 - i)))
        # compositions of s - i into d + 1 nonnegative parts
        for comp in itertools.combinations_with_replacement(range(d + 1), s - i):
            beta = [0] * (d + 1)
            for j in comp:
                beta[j] += 1
            pts.append([(2 * bj + 1) / denom for bj in beta])
            wts.append(w)
    bary = np.array(pts)
    # raw weights integrate over the unit simplex (volume 1/d!); the cell
    # loop multiplies by the simplex volume, so normalize to sum 1
    w = np.array(wts) / math.fsum(wts)
    return bary, w


@functools.cache
def _rules(dim):
    """The degree-5 rule of the dim-simplex and its degree-3 companion.

    The companion is used only for error estimation: comparing two
    different-degree rules on the same cell catches boundary-singular
    cells whose two-level difference is accidentally tiny.
    """
    if dim == 1:
        high = _rule_1d()
    elif dim == 2:
        high = _rule_triangle()
    else:
        high = _rule_grundmann_moller(dim, s=2)
    return high, _rule_grundmann_moller(dim, s=1)


def _exact_simplex_volume(verts):
    k = len(verts) - 1
    rows = [tuple(a - b for a, b in zip(v, verts[0])) for v in verts[1:]]
    return abs(_det(rows)) / Fraction(math.factorial(k))


# ---------------------------------------------------------------------------
# triangulation


@dataclass
class IntegrationRegion:
    """Simplicial cover of a polytope or slice."""

    dim: int
    simplices: list                       # list of exact vertex tuples
    volumes: list                         # exact volume of each simplex

    @property
    def exact_volume(self):
        return sum(self.volumes, Fraction(0))

    @property
    def float_simplices(self):
        return [np.array([[float(c) for c in v] for v in s])
                for s in self.simplices]


def _face_fan(poly, verts, rank):
    """Simplices of the face with the given vertices and affine rank.

    An edge is its own simplex.  A higher face is the cone from its exact
    barycenter over the fans of its facets, which are the vertex sets that
    the polytope's facets cut out of it with rank one less; a facet listed
    twice (or cut out by two facets) is used once.
    """
    if rank == 1:
        return [verts]
    faces = []
    for f in poly.facets:
        sub = tuple(v for v in verts if f.value(v) == 0)
        if sub not in faces and _affine_rank(sub, poly.dim) == rank - 1:
            faces.append(sub)
    apex = tuple(sum(c) / len(verts) for c in zip(*verts))
    return [s + (apex,) for face in faces
            for s in _face_fan(poly, face, rank - 1)]


def triangulate(poly) -> IntegrationRegion:
    """Face-fan triangulation; deterministic in the input facet order."""
    if not poly.is_full_dimensional:
        raise PolytopeError("cannot triangulate a region without interior")
    simplices = _face_fan(poly, poly.vertices, poly.dim)
    return IntegrationRegion(dim=poly.dim, simplices=simplices,
                             volumes=[_exact_simplex_volume(s)
                                      for s in simplices])


# ---------------------------------------------------------------------------
# adaptive integration


@dataclass
class IntegralResult:
    value: float
    error_estimate: float
    cells_used: int
    converged: bool


def _apply_rules(f, jobs):
    """volume * (rule on verts) for each (verts, volume, rule) job, with
    the nodes of all jobs passed to f in one array."""
    nodes = [bary @ verts for verts, _, (bary, _) in jobs]
    vals = np.asarray(f(np.concatenate(nodes)), dtype=float)
    out, start = [], 0
    for (_, volume, (_, weights)), x in zip(jobs, nodes):
        out.append(volume * float(weights @ vals[start:start + len(x)]))
        start += len(x)
    return out


def _bisect(verts):
    """Split along the longest edge; deterministic tie-breaking."""
    rows = verts.tolist()
    best = None
    for i, j in itertools.combinations(range(len(rows)), 2):
        d = math.sqrt(sum((a - b) ** 2 for a, b in zip(rows[i], rows[j])))
        if best is None or d > best[0] + 1e-15:
            best = (d, i, j)
    _, i, j = best
    mid = 0.5 * (verts[i] + verts[j])
    c1 = verts.copy()
    c1[i] = mid
    c2 = verts.copy()
    c2[j] = mid
    return c1, c2


def integrate(f, region: IntegrationRegion, tol: float,
              budget: int | None = None) -> IntegralResult:
    """Adaptively integrate the vectorized evaluator f over the region.

    f maps an (N, dim) array of strictly interior points to (N,) values and
    must be pointwise: one call receives the nodes of several cells and
    rules stacked in one array, all new nodes of a refinement step at once.
    """
    if budget is None:
        budget = cell_budget()
    high, low = _rules(region.dim)
    # a cell is the heap entry (-err, id, volume, verts, half values); its
    # coarse value is the half value its parent computed, so only the
    # companion rule and the two halves are new.  The volume is the exact
    # volume of its root simplex, halved at each bisection.
    heap = []
    ids = itertools.count()

    def push(cells):
        """Push (verts, volume, coarse) cells; returns their errors."""
        jobs = []
        for verts, volume, _ in cells:
            jobs.append((verts, volume, low))
            jobs += [(h, volume / 2, high) for h in _bisect(verts)]
        vals = iter(_apply_rules(f, jobs))
        errs = []
        for (verts, volume, coarse), low_val in zip(cells, vals):
            halves = (next(vals), next(vals))
            err = abs(coarse - sum(halves)) + 0.05 * abs(coarse - low_val)
            heapq.heappush(heap, (-err, next(ids), volume, verts, halves))
            errs.append(err)
        return errs

    roots = list(zip(region.float_simplices, map(float, region.volumes)))
    coarse = _apply_rules(f, [(verts, volume, high) for verts, volume in roots])
    err = math.fsum(push([root + (c,) for root, c in zip(roots, coarse)]))
    while err > tol and len(heap) < budget and heap:
        neg_err, _, volume, verts, halves = heapq.heappop(heap)
        err += neg_err
        for child_err in push([(half, volume / 2, c) for half, c
                               in zip(_bisect(verts), halves)]):
            err += child_err

    cells = sorted(heap, key=lambda cell: cell[1])
    err = math.fsum(-cell[0] for cell in cells)
    value = math.fsum(sum(cell[4]) for cell in cells)
    return IntegralResult(value=value, error_estimate=err,
                          cells_used=len(cells), converged=err <= tol)


def integrate_slice(f, poly, p: int, c, tol: float,
                    budget: int | None = None) -> IntegralResult:
    """Integrate f over the axis slice x_{1..p} = c with Lebesgue measure on
    the trailing coordinates.  f receives the (N, n-p) trailing coordinates;
    for p = n the slice is a point and f is evaluated once."""
    n = poly.dim
    if p == n:
        val = float(np.asarray(f(np.zeros((1, 0))))[0])
        return IntegralResult(value=val, error_estimate=0.0, cells_used=0,
                              converged=True)
    sl = axis_slice(poly, p, c)
    if sl.is_empty:
        return IntegralResult(value=0.0, error_estimate=0.0, cells_used=0,
                              converged=True)
    region = triangulate(sl)
    return integrate(f, region, tol, budget=budget)
