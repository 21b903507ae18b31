"""Deterministic adaptive quadrature over polytopes and their slices.

Polytopes of any dimension are triangulated by a recursive face fan from
exact barycenters; each simplex carries an open (interior-node) rule of
degree 5, so integrands that are only continuous up to the boundary are
never sampled on it.  Refinement is greedy: it bisects the cell with the
largest two-level error estimate.  The splits it is certain to make before
the estimates sum to the tolerance are evaluated ahead, up to 64 cells at
a time with one integrand call, which changes neither the splits nor
their order.  The cell values and errors are summed with math.fsum,
which is correctly rounded, so the totals do not depend on cell order.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import logging
import math
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .polytope import PolytopeError, _affine_rank, _det, axis_slice

DEFAULT_CELL_BUDGET = 200_000
_BUDGET_ENV = "TORICQ_CELL_BUDGET"
# most cells whose splits one integrand call evaluates
_BATCH = 64

logger = logging.getLogger(__name__)


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
    for r in range(len(poly.facets)):
        sub = tuple(v for v in verts if r in poly.incidence[v])
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
    # the cell budget stopped refinement above tol
    hit_budget: bool = False


@functools.cache
def _edges(k):
    """The vertex pairs (i, j) of a k-vertex simplex in combinations order,
    as two index arrays."""
    return tuple(np.array(list(itertools.combinations(range(k), 2))).T)


def _bisect_many(verts):
    """Split each cell of the (C, k, d) stack at the midpoint of its
    longest edge, into the cell with vertex i moved there and the one with
    vertex j moved there.

    The edge is the first in combinations order that is longer than every
    earlier edge by more than 1e-15.  Lengths are rounded as
    sqrt(sum((a - b) ** 2)) in Python floats, term by term: float_power
    is the C pow that ** calls, and squaring by x * x can differ from it
    in the last bit.
    """
    i, j = _edges(verts.shape[1])
    lengths = np.sqrt(sum(np.float_power(verts[:, i] - verts[:, j], 2.0).T))
    best, edge = lengths[0], np.zeros(len(verts), dtype=int)
    for e in range(1, len(lengths)):
        longer = lengths[e] > best + 1e-15
        best = np.where(longer, lengths[e], best)
        edge[longer] = e
    at_i = np.arange(verts.shape[1]) == i[edge, None]
    at_j = np.arange(verts.shape[1]) == j[edge, None]
    mid = (0.5 * (verts[at_i] + verts[at_j]))[:, None]
    return (np.where(at_i[..., None], mid, verts),
            np.where(at_j[..., None], mid, verts))


def _evaluate(f, verts, volumes, coarse=None):
    """Errors and half values of the (K, k, d) cells of the given volumes,
    with the nodes of all of them passed to f in one array.

    A cell's coarse value is its high rule, which its parent computed as
    one of its half values; for roots (coarse None) it is computed here.
    """
    high, low = _rules(verts.shape[2])
    jobs = [(low, verts, volumes)]
    jobs += [(high, half, volumes / 2) for half in _bisect_many(verts)]
    if coarse is None:
        jobs.append((high, verts, volumes))
    nodes = [np.matmul(bary, v).reshape(-1, v.shape[2])
             for (bary, _), v, _ in jobs]
    vals = np.asarray(f(np.concatenate(nodes)), dtype=float)
    sums, start = [], 0
    for ((_, weights), _, vol), x in zip(jobs, nodes):
        rows = vals[start:start + len(x)].reshape(len(vol), len(weights))
        sums.append([v * float(row_sum) for v, row_sum
                     in zip(vol.tolist(), map(weights.dot, rows))])
        start += len(x)
    if coarse is None:
        coarse = sums[3]
    halves = list(zip(sums[1], sums[2]))
    errs = [abs(c - sum(h)) + 0.05 * abs(c - low_val)
            for c, h, low_val in zip(coarse, halves, sums[0])]
    return errs, halves


def _split(f, cells):
    """The two children (verts, err, half values) of each heap entry, from
    one call of f."""
    parents = np.stack([cell[3] for cell in cells])
    children = np.stack(_bisect_many(parents), axis=1).reshape(
        -1, *parents.shape[1:])
    errs, halves = _evaluate(
        f, children, np.repeat([cell[2] / 2 for cell in cells], 2),
        [h for cell in cells for h in cell[4]])
    # copies, so that a cell's vertices do not keep its whole batch alive
    out = list(zip([c.copy() for c in children], errs, halves))
    return [out[2 * k:2 * k + 2] for k in range(len(cells))]


def integrate(f, region: IntegrationRegion, tol: float,
              budget: int | None = None) -> IntegralResult:
    """Adaptively integrate the vectorized evaluator f over the region.

    Refinement is greedy: it splits the cell of largest error estimate
    until the estimates sum to at most tol or the cells reach the budget.
    Splits that greedy is certain to make are evaluated ahead in batches,
    which changes neither the splits nor their order.  f maps an (N, dim)
    array of strictly interior points to (N,) values and must be
    pointwise: it is called once per batch, with the nodes of all its
    cells and rules stacked in one array.
    """
    if budget is None:
        budget = cell_budget()
    # a cell is the heap entry (-err, id, volume, verts, half values); its
    # coarse value is the half value its parent computed, so only the
    # companion rule and the two halves are new.  The volume is the exact
    # volume of its root simplex, halved at each bisection.
    heap = []
    ids = itertools.count()
    roots = np.array(region.float_simplices)
    volumes = np.array([float(v) for v in region.volumes])
    errs, halves = _evaluate(f, roots, volumes)
    for e, volume, verts, h in zip(errs, volumes.tolist(), roots, halves):
        heapq.heappush(heap, (-e, next(ids), volume, verts, h))
    err = math.fsum(errs)
    # cells whose split is already evaluated, each entry extended by its
    # two children (verts, err, half values), and their summed error.
    # Greedy pops the smaller of the two tops, the top of the union.
    ahead, ahead_err = [], 0.0
    while err > tol and len(heap) + len(ahead) < budget:
        if not ahead or heap and heap[0] < ahead[0]:
            # Greedy splits cells until the errors of all cells sum to
            # tol.  A split removes the cell's error and adds its
            # children's, which are never negative.  So while the errors
            # of the cells ahead and of those taken so far sum to less
            # than err - tol, the next cell is split before refinement
            # stops on tol.  It stops on the budget after budget - cells
            # splits, which the cells ahead take first.
            batch = [heapq.heappop(heap)]
            walked = ahead_err - batch[0][0]
            limit = min(_BATCH, budget - len(heap) - 2 * len(ahead) - 1)
            while heap and len(batch) < limit and walked < err - tol:
                batch.append(heapq.heappop(heap))
                walked -= batch[-1][0]
            for cell, children in zip(batch, _split(f, batch)):
                heapq.heappush(ahead, cell + (children,))
                ahead_err -= cell[0]
        neg_err, _, volume, _, _, children = heapq.heappop(ahead)
        # an empty ahead leaves no rounding residue behind
        ahead_err = ahead_err + neg_err if ahead else 0.0
        err += neg_err
        for verts, child_err, child_halves in children:
            heapq.heappush(heap, (-child_err, next(ids), volume / 2, verts,
                                  child_halves))
            err += child_err

    cells = heap + ahead
    err = math.fsum(-cell[0] for cell in cells)
    value = math.fsum(sum(cell[4]) for cell in cells)
    hit_budget = err > tol and len(cells) >= budget
    if hit_budget:
        logger.warning("cell budget %d reached with error estimate %.3g "
                       "above tol %.3g", budget, err, tol)
    return IntegralResult(value=value, error_estimate=err,
                          cells_used=len(cells), converged=err <= tol,
                          hit_budget=hit_budget)


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
