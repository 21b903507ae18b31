"""Deterministic adaptive quadrature over polytopes and their slices.

Polytopes of any dimension are triangulated by a recursive face fan from
exact barycenters, with vertices as integer rows (X, D) for X / D.
Every simplex, in every dimension, carries the open
(interior-node) Grundmann-Moller rule of degree 9 and its degree-7
companion, so integrands that are only continuous up to the boundary are
never sampled on it.  A cell's value is the degree-9 rule on its two
halves, and its error estimate bounds that value: the distance to the
degree-7 rule on the same halves plus the distance to the degree-9 rule
on the whole cell.  The rules are nested (Grundmann and Moller, 1978), so
their distinct nodes form one set per dimension.  Each half, and each
root cell as a whole, passes that set to the integrand once; the `nodes`
of a result counts these distinct nodes.  Each rule's sum gathers the
values at its own nodes, in its own order, into one contiguous row per
cell, which numpy adds in a fixed order after weighting, so a batch of
cells gives the same bits as each cell alone.  Refinement is greedy:
it bisects the cell with the largest error estimate.  The first call
evaluates the roots with their splits, and the splits greedy is certain
to make before the estimates sum to the tolerance are evaluated ahead,
up to 64 cells per call, which changes neither the splits nor their
order.  Integrals over one region can refine in lockstep, each round
sharing one integrand call, with each result unchanged.  Values and
errors are summed with math.fsum, which is correctly rounded, so the
totals do not depend on cell order.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import os
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import warn
from .polytope import PolytopeError, _affine_rank, _det, axis_slice

DEFAULT_CELL_BUDGET = 200_000
_BUDGET_ENV = "TORICQ_CELL_BUDGET"
# most cells whose splits one integrand call evaluates
_BATCH = 64


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
# Grundmann-Moller rules with strictly interior nodes, in barycentric
# coordinates


def _rule_grundmann_moller(dim, s):
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
    """The degree-9 Grundmann-Moller rule of the dim-simplex and its
    degree-7 companion, built on first use.

    A cell's value is the high rule on its two halves.  The companion on
    the same halves estimates the error of that value, and the high rule
    on the whole cell catches the cells where the two rules agree by
    accident.
    """
    return _rule_grundmann_moller(dim, 4), _rule_grundmann_moller(dim, 3)


@functools.cache
def _nodes(dim):
    """The distinct barycentric nodes of the two rules of _rules(dim), and
    for each rule the row of each of its nodes in that set.

    The rules are nested: every node of the degree-7 companion is, as a
    float, a node of the degree-9 rule, which also repeats its
    centroid-type nodes.  The set has 13, 34, 69 and 126 nodes in
    dimensions 1 to 4.
    """
    rules = _rules(dim)
    bary, index = np.unique(np.concatenate([b for b, _ in rules]), axis=0,
                            return_inverse=True)
    cut = len(rules[0][0])
    return bary, (index[:cut], index[cut:])


def _exact_simplex_volume(verts):
    """|det [X_i, D_i]| / (k! prod D_i), the volume of the k-simplex with
    the integer rows (X_i, D_i) as vertices."""
    scale = math.factorial(len(verts) - 1) * math.prod(v[-1] for v in verts)
    return Fraction(abs(_det(verts)), scale)


# ---------------------------------------------------------------------------
# triangulation


class IntegrationRegion:
    """Simplicial cover of a polytope or slice: the simplices, their
    vertices as integer rows (X, D), and the exact volume of each."""

    def __init__(self, simplices, volumes):
        self.simplices, self.volumes = simplices, volumes

    @functools.cached_property
    def float_simplices(self):
        return np.array([[[c / v[-1] for c in v[:-1]] for v in s]
                         for s in self.simplices])


def _face_fan(poly, face, rank):
    """Simplices of the face with the given vertex indices and affine rank.

    An edge is its own simplex.  A higher face is the cone from its exact
    barycenter, the sum (X, D) of its vertex rows, over the fans of its
    facets, which are the vertex sets that the polytope's facets cut out of
    it with rank one less; a facet listed twice (or cut out by two facets)
    is used once.
    """
    verts = tuple(poly.vertices[i] for i in face)
    if rank == 1:
        return [verts]
    faces = []
    for r in range(len(poly.facets)):
        sub = tuple(i for i in face if r in poly.incidence[i])
        if sub not in faces and _affine_rank(
                [poly.vertices[i] for i in sub], poly.dim) == rank - 1:
            faces.append(sub)
    apex = tuple(map(sum, zip(*verts)))
    return [s + (apex,) for face in faces
            for s in _face_fan(poly, face, rank - 1)]


def triangulate(poly) -> IntegrationRegion:
    """Face-fan triangulation; deterministic in the input facet order."""
    if not poly.is_full_dimensional:
        raise PolytopeError("cannot triangulate a region without interior")
    simplices = _face_fan(poly, range(len(poly.vertices)), poly.dim)
    return IntegrationRegion(simplices, [_exact_simplex_volume(s)
                                         for s in simplices])


# ---------------------------------------------------------------------------
# adaptive integration


class IntegralResult(NamedTuple):
    value: float
    error_estimate: float
    cells_used: int
    converged: bool
    # the cell budget stopped refinement above tol
    hit_budget: bool = False
    # integrand nodes evaluated
    nodes: int = 0
    # integrand calls that evaluated cells of this integral
    integrand_calls: int = 0


@functools.cache
def _edges(k):
    """The vertex pairs (i, j) of a k-vertex simplex in combinations order,
    as two index arrays."""
    return tuple(np.array(list(itertools.combinations(range(k), 2))).T)


def _bisect_many(verts):
    """Split each cell of the (C, k, d) stack at the midpoint of its
    longest edge, into the cell with vertex i moved there and the one with
    vertex j moved there; returns the halves as one (2, C, k, d) array.

    The edge is the first in combinations order that is longer than every
    earlier edge by more than 1e-15.  Lengths are rounded as
    sqrt(sum((a - b) ** 2)) in Python floats: float_power is the C pow
    that ** calls (x * x can differ from it in the last bit), and numpy
    adds fewer than 8 squares in order.
    """
    i, j = _edges(verts.shape[1])
    a, b = verts.take(i, axis=1), verts.take(j, axis=1)
    lengths = np.sqrt(np.float_power(a - b, 2.0).sum(-1))
    cells, edge = np.arange(len(verts)), np.zeros(len(verts), dtype=int)
    for e in range(1, lengths.shape[1]):
        np.putmask(edge, lengths[:, e] > lengths[cells, edge] + 1e-15, e)
    halves = np.array((verts, verts))
    halves[0, cells, i[edge]] = halves[1, cells, j[edge]] = 0.5 * (
        a[cells, edge] + b[cells, edge])
    return halves


def _rule_sums(vals, idx, weights):
    """weights . vals[..., idx] for every row of vals, each row gathered
    C-contiguous in the rule's order and summed by numpy in a fixed order."""
    return (vals.take(idx, axis=-1) * weights).sum(-1)


def _evaluate(f, verts, volumes, counts, coarse=None):
    """The cells (pair, err, half values) of the (K, k, d) stack of the
    given volumes, counts[j] of them from integral j in turn, from one call
    of f, and the number of nodes passed.

    A cell's value is the sum of its two half values, the high rule on
    each half.  Its error estimate bounds that sum: the distance to the
    companion rule on the same halves, plus the distance to the coarse
    value, the high rule on the whole cell, which its parent computed as
    one of its half values.  Each half of the bisection takes the shared
    node set of the two rules, so f sees each node once, cell by cell.
    Cells' pairs, their two halves as (2, k, d) arrays, are the rows of one
    copy that holds only the pairs, not the batch.  For roots (coarse None)
    f also gets the whole cells, for their coarse values, and the halves of
    their children, which end each root's tuple as `_greedy` takes them.
    """
    dim = verts.shape[2]
    bary, (idx_high, idx_low) = _nodes(dim)
    (_, w_high), (_, w_low) = _rules(dim)

    def cells(split, vals, volumes, coarse):
        halves = _rule_sums(vals, idx_high, w_high) * (volumes / 2)
        low = _rule_sums(vals, idx_low, w_low) * (volumes / 2)
        value = halves[0] + halves[1]
        errs = abs(coarse - value) + abs(value - (low[0] + low[1]))
        pairs = split.swapaxes(0, 1).copy()
        return list(zip(pairs, errs.tolist(), zip(*halves.tolist()))), halves

    split = _bisect_many(verts)
    blocks = split.swapaxes(0, 1)
    if coarse is None:
        k, d = verts.shape[1:]
        grand = _bisect_many(blocks.reshape(-1, k, d))
        blocks = np.concatenate((blocks, verts[:, None], grand.reshape(
            2, -1, 2, k, d).swapaxes(0, 1).reshape(-1, 4, k, d)), axis=1)
    points = np.matmul(bary, blocks).reshape(-1, dim)
    per_cell = len(points) // len(verts)
    starts = [c * per_cell for c in itertools.accumulate(counts, initial=0)]
    vals = np.asarray(f(points, starts), float).reshape(
        len(verts), -1, len(bary)).swapaxes(0, 1)
    if coarse is not None:
        return cells(split, vals, volumes, np.asarray(coarse))[0], len(points)
    roots, halves = cells(split, vals[:2], volumes,
                          _rule_sums(vals[2], idx_high, w_high) * volumes)
    kids, _ = cells(grand, vals[3:].reshape(2, 2, -1, len(bary)).swapaxes(
        1, 2).reshape(2, -1, len(bary)), np.repeat(volumes / 2, 2),
        halves.T.ravel())
    return [root + (kids[2 * i:2 * i + 2],)
            for i, root in enumerate(roots)], len(points)


def _greedy(region, tol, budget):
    """One integral's greedy refinement, as a generator: it yields the
    arguments (verts, volumes, coarse values) of `_evaluate` for its roots
    and then for the children of the cells it splits, is sent the cells
    that come back, and returns the errors and values of its last cells.
    """
    # a cell is the heap entry (-err, id, volume, pair, half values,
    # children), where pair is the (2, k, d) stack of the two cells its
    # bisection gives, which become its children when it is split.  Its
    # coarse value is the half value its parent computed, so only its two
    # halves, under both rules, are new.  The volume is the exact volume of
    # its root simplex, halved at each bisection.  children is None until
    # the split is evaluated, as a root's is with the root.
    heap = []
    ids = itertools.count()
    volumes = [float(v) for v in region.volumes]
    roots = yield region.float_simplices, np.array(volumes), None
    for (pair, e, h, children), volume in zip(roots, volumes):
        heapq.heappush(heap, (-e, next(ids), volume, pair, h, children))
    err = math.fsum(-cell[0] for cell in heap)
    # cells whose split is already evaluated, and their summed error.
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
            todo = [cell for cell in batch if cell[5] is None]
            out = iter((yield (
                np.concatenate([cell[3] for cell in todo]),
                np.repeat([cell[2] / 2 for cell in todo], 2),
                [h for cell in todo for h in cell[4]])) if todo else ())
            for cell in batch:
                children = cell[5] or [next(out), next(out)]
                heapq.heappush(ahead, cell[:5] + (children,))
                ahead_err -= cell[0]
        neg_err, _, volume, _, _, children = heapq.heappop(ahead)
        # an empty ahead leaves no rounding residue behind
        ahead_err = ahead_err + neg_err if ahead else 0.0
        err += neg_err
        for pair, child_err, child_halves in children:
            heapq.heappush(heap, (-child_err, next(ids), volume / 2, pair,
                                  child_halves, None))
            err += child_err
    cells = heap + ahead
    return [-cell[0] for cell in cells], [sum(cell[4]) for cell in cells]


def integrate_lockstep(f, region: IntegrationRegion, tol, count):
    """Integrate count integrands over the region, yielding their
    IntegralResults in order.  Each refines greedily until its estimates
    sum to at most tol or its cells reach `cell_budget()`, and the splits
    greedy is certain to make are evaluated ahead in batches, which
    changes neither the splits nor their order.  The integrals share their
    calls of f(points, starts), which must be pointwise and maps the
    points of integral j, rows starts[j] to starts[j + 1], to their
    values.  A call takes at most the nodes of _BATCH splits, or one
    integral's roots; integrand_calls counts the calls an integral took
    part in.  A result is summed, and its budget warning logged, when it
    is taken, so a caller that stops at a failing integral sees what one
    integral after another gives.
    """
    budget = cell_budget()
    runs = [_greedy(region, tol, budget) for _ in range(count)]
    calls, nodes, cells = [0] * count, [0] * count, [None] * count
    replies = dict.fromkeys(range(count))
    while replies:
        asks, packs = {}, []
        for i, reply in replies.items():
            try:
                asks[i] = verts, _, coarse = runs[i].send(reply)
            except StopIteration as stop:
                cells[i] = stop.value
                continue
            # node blocks per cell: 7 for a root, 2 for a child
            size = len(verts) * (7 if coarse is None else 2)
            if not packs or packs[-1][0] + size > 4 * _BATCH:
                packs.append([0])
            packs[-1][0] += size
            packs[-1].append(i)
        replies = {}
        for _, *pack in packs:
            verts, volumes, coarse = zip(*(asks[i] for i in pack))
            counts = [0] * count
            for i, v in zip(pack, verts):
                counts[i] = len(v)
            out, n = _evaluate(f, np.concatenate(verts),
                               np.concatenate(volumes), counts,
                               None if coarse[0] is None else sum(coarse, []))
            for i in pack:
                replies[i], out = out[:counts[i]], out[counts[i]:]
                calls[i] += 1
                nodes[i] += n * counts[i] // sum(counts)
    for (errs, values), n, c in zip(cells, nodes, calls):
        err, value = math.fsum(errs), math.fsum(values)
        hit_budget = err > tol and len(errs) >= budget
        if hit_budget:
            warn(__name__, "cell budget %d reached with error estimate %.3g "
                 "above tol %.3g", budget, err, tol)
        yield IntegralResult(value=value, error_estimate=err,
                             cells_used=len(errs), converged=err <= tol,
                             hit_budget=hit_budget, nodes=n,
                             integrand_calls=c)


def integrate(f, region: IntegrationRegion, tol: float) -> IntegralResult:
    """Adaptively integrate the vectorized evaluator f, which maps an
    (N, dim) array of strictly interior points to (N,) values and must be
    pointwise, over the region: `integrate_lockstep` for one integral.
    Without a budget stop, nodes = 4q cells - q roots + 4q u for the q
    shared nodes and the u roots never split, and an integral that
    converges on its roots calls f once."""
    return next(integrate_lockstep(lambda x, starts: f(x), region, tol, 1))


def integrate_slice(f, poly, p: int, c, tol: float) -> IntegralResult:
    """Integrate f over the axis slice x_{1..p} = c with Lebesgue measure on
    the trailing coordinates.  f receives the (N, n-p) trailing coordinates;
    for p = n the slice is a point and f is evaluated once."""
    n = poly.dim
    if p == n:
        val = float(np.asarray(f(np.zeros((1, 0))))[0])
        return IntegralResult(value=val, error_estimate=0.0, cells_used=0,
                              converged=True, nodes=1, integrand_calls=1)
    sl = axis_slice(poly, p, c)
    if sl.is_empty:
        return IntegralResult(value=0.0, error_estimate=0.0, cells_used=0,
                              converged=True)
    return integrate(f, triangulate(sl), tol)
