import heapq
import itertools
import logging
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exact_oracles import as_fractions, cofactor_det
from toricq import library
from toricq.polytope import DelzantPolytope, PolytopeError, _scaled
from toricq.quadrature import (
    _BATCH,
    _bisect_many,
    _exact_simplex_volume,
    _nodes,
    _rule_sums,
    _rules,
    cell_budget,
    integrate,
    integrate_lockstep,
    integrate_slice,
    triangulate,
)

# distinct nodes of the degree-9 rule and its degree-7 companion, by
# dimension: the node set that every block of cells passes to f
SHARED_NODES = {1: 13, 2: 34, 3: 69, 4: 126}

# e^(2 g_P) on the unit segment is x^x (1-x)^(1-x); reference computed once
# with 30-digit adaptive quadrature (cross-checked by 10^6-interval Simpson)
SEGMENT_EXP_ORACLE = 0.617826964729011473


def shipped_polytopes():
    return [library.corrected_segment(), library.corrected_square(),
            library.simplex(1), library.simplex(2)]


class TestTriangulate:
    def test_unit_square(self):
        region = triangulate(library.square(1))
        assert len(region.simplices) == 4
        assert sum(region.volumes) == 1
        for s in region.float_simplices:
            area = abs(np.linalg.det(s[1:] - s[0])) / 2
            assert area == pytest.approx(0.25)

    def test_segment(self):
        region = triangulate(library.segment(0, 3))
        assert len(region.simplices) == 1
        assert sum(region.volumes) == 3

    def test_simplex_fan(self):
        region = triangulate(library.simplex(1))
        assert len(region.simplices) == 3
        assert sum(region.volumes) == Fraction(1, 2)

    def test_volume_identity_all_shipped(self):
        for poly in shipped_polytopes():
            region = triangulate(poly)
            float_total = math.fsum(
                abs(np.linalg.det(s[1:] - s[0])) / math.factorial(poly.dim)
                for s in region.float_simplices)
            assert float_total == pytest.approx(float(sum(region.volumes)),
                                                abs=1e-12)

    @staticmethod
    def cofactor_volume(verts):
        # |det| of the edge vectors by Fraction cofactor expansion, over k!
        rows = [[a - b for a, b in zip(v, verts[0])] for v in verts[1:]]
        return Fraction(abs(cofactor_det(rows)), math.factorial(len(rows)))

    def test_exact_volumes_match_cofactor_determinants(self):
        for poly in shipped_polytopes() + [box(3), box(4)]:
            region = triangulate(poly)
            assert region.volumes == [self.cofactor_volume(as_fractions(s))
                                      for s in region.simplices]
        rng = random.Random(7)
        for dim in (1, 2, 3, 4):
            for _ in range(200):
                verts = [tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 8))
                               for _ in range(dim)) for _ in range(dim + 1)]
                if rng.random() < 0.1:
                    # a repeated vertex: a degenerate simplex of volume 0
                    verts[-1] = verts[rng.randrange(dim)]
                # each vertex as the integer row (X, D) of X / D
                rows = [_scaled(v + (Fraction(1),)) for v in verts]
                assert (_exact_simplex_volume(rows)
                        == self.cofactor_volume(verts))

    def test_3d_simplex(self):
        poly = DelzantPolytope.from_data(
            3, [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0),
                ((-1, -1, -1), 1)])
        region = triangulate(poly)
        assert sum(region.volumes) == Fraction(1, 6)

    def test_empty_region_errors(self):
        from toricq.polytope import axis_slice

        sl = axis_slice(library.simplex(2), 1, (3,))
        with pytest.raises(PolytopeError):
            triangulate(sl)


def compositions(total, parts):
    """Every tuple of `parts` nonnegative ints that sum to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


class TestRules:
    """_rules(d) is the Grundmann-Moller pair of degrees 9 and 7: on the
    unit d-simplex it integrates the barycentric monomial lambda^alpha to
    alpha! / (d + |alpha|)! for every |alpha| up to its degree, and misses
    some monomial of the next degree."""

    @staticmethod
    def worst_relative_error(rule, dim, total):
        bary, weights = rule
        worst = 0.0
        for alpha in compositions(total, dim + 1):
            exact = Fraction(math.prod(map(math.factorial, alpha)),
                             math.factorial(dim + total))
            value = (float(weights @ np.prod(bary ** np.array(alpha), axis=1))
                     / math.factorial(dim))
            worst = max(worst, float(abs(Fraction(value) - exact) / exact))
        return worst

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_degrees(self, dim):
        for rule, degree in zip(_rules(dim), (9, 7)):
            assert np.all(rule[0] > 0)
            for total in range(degree + 1):
                assert self.worst_relative_error(rule, dim, total) < 1e-12
            assert self.worst_relative_error(rule, dim, degree + 1) > 1e-8


class TestSharedNodes:
    """_nodes(d) is the distinct nodes of the two rules of _rules(d): each
    rule's nodes are rows of it, bit for bit, at the recorded indices."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_every_rule_node_is_a_shared_row(self, dim):
        bary, indices = _nodes(dim)
        for (rule_bary, _), idx in zip(_rules(dim), indices):
            assert len(idx) == len(rule_bary)
            assert np.array_equal(bary[idx], rule_bary)
        assert len({row.tobytes() for row in bary}) == len(bary)
        assert len(bary) == SHARED_NODES[dim]


class TestIntegrate:
    def test_constant_on_square(self):
        region = triangulate(library.square(1))
        res = integrate(lambda x: np.ones(len(x)), region, tol=1e-12)
        assert res.converged
        assert res.value == pytest.approx(1.0, abs=1e-12)

    def test_linear_on_square(self):
        region = triangulate(library.square(1))
        res = integrate(lambda x: x[:, 0], region, tol=1e-10)
        assert res.value == pytest.approx(0.5, abs=1e-10)

    def test_segment_boundary_continuous_integrand(self):
        region = triangulate(library.segment(0, 1))

        def f(x):
            t = x[:, 0]
            return np.exp(t * np.log(t) + (1 - t) * np.log(1 - t))

        res = integrate(f, region, tol=1e-10)
        assert res.converged
        assert res.value == pytest.approx(SEGMENT_EXP_ORACLE, abs=1e-8)

    def test_gaussian_on_simplex(self):
        # sharply peaked integrand exercises adaptivity; oracle via a fine
        # midpoint grid
        region = triangulate(library.simplex(1))

        def f(x):
            return np.exp(-50.0 * ((x[:, 0] - 0.3) ** 2
                                   + (x[:, 1] - 0.3) ** 2))

        res = integrate(f, region, tol=1e-8)
        N = 2000
        h = 1.0 / N
        g = (np.arange(N) + 0.5) * h
        X, Y = np.meshgrid(g, g)
        mask = X + Y <= 1.0
        oracle = np.exp(-50 * ((X - 0.3) ** 2 + (Y - 0.3) ** 2))[mask].sum() \
            * h * h
        assert res.value == pytest.approx(oracle, abs=1e-6)

    def test_budget_exhaustion_flagged(self, monkeypatch):
        monkeypatch.setenv("TORICQ_CELL_BUDGET", "8")
        region = triangulate(library.square(1))
        res = integrate(lambda x: np.exp(-200 * x[:, 0]), region, tol=1e-15)
        assert not res.converged

    def test_refinement_monotone(self, monkeypatch):
        region = triangulate(library.square(1))
        f = lambda x: np.exp(-30 * (x[:, 0] - 0.2) ** 2)
        errs = []
        for budget in ("16", "32", "64", "128"):
            monkeypatch.setenv("TORICQ_CELL_BUDGET", budget)
            errs.append(integrate(f, region, tol=0.0).error_estimate)
        assert all(a >= b - 1e-15 for a, b in zip(errs, errs[1:]))

    def test_determinism(self):
        region = triangulate(library.simplex(2))
        f = lambda x: np.exp(-10 * (x[:, 0] - 0.4) ** 2) * (1 + x[:, 1])
        r1 = integrate(f, region, tol=1e-9)
        r2 = integrate(f, region, tol=1e-9)
        assert r1.value == r2.value
        assert r1.error_estimate == r2.error_estimate
        assert r1.cells_used == r2.cells_used

    @pytest.mark.parametrize("poly, tol", [
        (library.simplex(2), 1e-9),
        (DelzantPolytope.from_data(
            3, [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0),
                ((-1, 0, 0), 1), ((0, -1, 0), 1), ((0, 0, -1), 1)]), 1e-7),
    ], ids=["2d", "3d"])
    def test_batching_is_invisible(self, poly, tol):
        # f gets the nodes of many cells and rules in one array; a pointwise
        # f must give the same bits as when it sees one node at a time
        def g(x):
            return np.exp(-10 * np.sum((x - 0.4) ** 2, axis=-1)) * (1 + x[:, 0])

        calls = []

        def batched(x):
            calls.append(len(x))
            return g(x)

        def one_at_a_time(x):
            return np.concatenate([g(x[i:i + 1]) for i in range(len(x))])

        region = triangulate(poly)
        r1 = integrate(batched, region, tol=tol)
        r2 = integrate(one_at_a_time, region, tol=tol)
        assert r1.converged and r1.cells_used > 100
        assert r1.value == r2.value
        assert r1.error_estimate == r2.error_estimate
        assert r1.cells_used == r2.cells_used
        # one call for the roots, then one per batch of splits
        assert len(calls) <= (r1.cells_used - len(region.simplices) + 2) // 2


def bisect_one(verts):
    """Split one cell along its longest edge: the first pair in
    combinations order longer than every earlier one by more than 1e-15."""
    rows = verts.tolist()
    best = None
    for i, j in itertools.combinations(range(len(rows)), 2):
        d = math.sqrt(sum((a - b) ** 2 for a, b in zip(rows[i], rows[j])))
        if best is None or d > best[0] + 1e-15:
            best = (d, i, j)
    _, i, j = best
    halves = verts.copy(), verts.copy()
    halves[0][i] = halves[1][j] = 0.5 * (verts[i] + verts[j])
    return halves


def rule_sum(values, weights):
    """A rule's sum over one cell, as numpy adds a 1-D array."""
    return float((values * weights).sum())


def region_dim(region):
    """The dimension of the region's simplices."""
    return len(region.simplices[0]) - 1


def greedy_reference(f, region, tol, budget):
    """Greedy refinement one cell at a time, as `integrate` defines it:
    split the cell of largest error (lowest id on ties) along its longest
    edge until the errors sum to tol or the cells reach the budget.
    Returns (value, error estimate, cells, converged, roots never split)."""
    high, low = _rules(region_dim(region))
    ids = itertools.count()

    def rule(verts, volume, r):
        bary, weights = r
        return volume * rule_sum(f(bary @ verts), weights)

    def cell(verts, volume, coarse):
        split = bisect_one(verts)
        halves = tuple(rule(h, volume / 2, high) for h in split)
        low_halves = tuple(rule(h, volume / 2, low) for h in split)
        err = (abs(coarse - sum(halves))
               + abs(sum(halves) - sum(low_halves)))
        return (-err, next(ids), volume, verts, halves)

    heap = [cell(v, vol, rule(v, vol, high)) for v, vol in
            zip(region.float_simplices, map(float, region.volumes))]
    err = math.fsum(-c[0] for c in heap)
    heapq.heapify(heap)
    while err > tol and len(heap) < budget:
        neg_err, _, volume, verts, halves = heapq.heappop(heap)
        err += neg_err
        for h, coarse in zip(bisect_one(verts), halves):
            child = cell(h, volume / 2, coarse)
            heapq.heappush(heap, child)
            err -= child[0]
    heap.sort(key=lambda c: c[1])
    err = math.fsum(-c[0] for c in heap)
    # the roots took the first ids
    unsplit = sum(c[1] < len(region.simplices) for c in heap)
    return (math.fsum(sum(c[4]) for c in heap), err, len(heap), err <= tol,
            unsplit)


def box(n):
    return DelzantPolytope.from_data(
        n, [(tuple(int(i == j) * sign for j in range(n)), int(sign < 0))
            for i in range(n) for sign in (1, -1)])


def counting(g):
    nodes = []

    def f(x):
        nodes.append(len(x))
        return g(x)

    return f, nodes


def peaked(x):
    return np.exp(-10 * np.sum((x - 0.3) ** 2, axis=-1)) * (1 + x[:, 0])


def first_coordinate(x):
    # translates along the other axes see the same values: exact error ties
    return np.exp(-5 * x[:, 0])


class TestRuleSums:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_batch_gives_the_bits_of_each_row(self, dim):
        # values over many magnitudes, so that the order of the additions
        # shows in the last bits
        rng = np.random.default_rng(dim)
        vals = (rng.standard_normal((64, SHARED_NODES[dim]))
                * 10.0 ** rng.uniform(-8, 8, (64, SHARED_NODES[dim])))
        for idx, (_, weights) in zip(_nodes(dim)[1], _rules(dim)):
            batch = _rule_sums(vals, idx, weights)
            for row, total in zip(vals, batch.tolist()):
                assert _rule_sums(row, idx, weights) == total
                assert rule_sum(row[idx], weights) == total


class TestBisectMany:
    def check(self, cells):
        halves = _bisect_many(cells)
        for k, cell in enumerate(cells):
            for half, ref in zip(halves, bisect_one(cell)):
                assert np.array_equal(half[k], ref)
        return halves

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_matches_one_cell_at_a_time(self, dim):
        # random cells, and their halves, which have exactly equal edges
        cells = np.random.default_rng(dim).random((50, dim + 1, dim))
        for _ in range(3):
            cells = np.concatenate(self.check(cells))

    def test_near_ties_keep_the_first_edge(self):
        # |v2 - v0| runs from 1 ulp below |v1 - v0| = 1 to 9 ulp above;
        # edge (0, 2) takes over from edge (0, 1) only past 1e-15
        x, h = 0.6807646791238382, 0.7325021854284245
        cells = np.array([[[0.0, 0.0], [1.0, 0.0], [x, h + k * 2.0 ** -53]]
                          for k in range(-4, 24)])
        c1, c2 = self.check(cells)
        moved = {(int(np.flatnonzero((a != c).any(axis=1))[0]),
                  int(np.flatnonzero((b != c).any(axis=1))[0]))
                 for a, b, c in zip(c1, c2, cells)}
        assert moved == {(0, 1), (0, 2)}

    def test_lengths_round_like_python_floats(self):
        # |v2 - v0| lands on either side of 1 + 1e-15 depending on whether
        # the squares round as pow, which ** calls, or as x * x
        self.check(np.array([[[0.0, 0.0], [1.0, 0.0], v] for v in (
            (0.5761919585227188, 0.8173143990740381),
            (0.7533547420114981, 0.6576143495155741),
            (0.5658527308473188, 0.8245063292617191))]))


class TestGreedyOracle:
    """`integrate` evaluates splits in batches; it must make the same
    splits as greedy refinement one cell at a time, bit for bit.  Without
    a budget stop it passes the shared node set once on each root's two
    halves and the root itself, on the halves of each root's two children,
    and on the halves of each later split's two new cells:
    nodes = 4 q cells - q roots + 4 q u, with q = SHARED_NODES[dim] and u
    the roots that are never split."""

    def check(self, g, region, tol, budget):
        f, nodes = counting(g)
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("TORICQ_CELL_BUDGET", str(budget))
            res = integrate(f, region, tol)
        f_ref, ref_nodes = counting(g)
        value, err, cells, converged, unsplit = greedy_reference(
            f_ref, region, tol, budget)
        assert (res.value, res.error_estimate, res.cells_used,
                res.converged) == (value, err, cells, converged)
        assert res.hit_budget == (cells >= budget and not converged)
        if not res.hit_budget:
            q = SHARED_NODES[region_dim(region)]
            assert sum(nodes) == (4 * q * cells - q * len(region.simplices)
                                  + 4 * q * unsplit)
        return res, len(nodes), len(ref_nodes)

    @pytest.mark.parametrize("poly, tols", [
        (library.segment(0, 1), (1e-3, 1e-6, 1e-9)),
        (library.simplex(1), (1e-4, 1e-6, 1e-9)),
        (library.corrected_square(), (1e-4, 1e-7)),
        (box(3), (1e-5, 1e-6)),
        (box(4), (1e-5, 1e-6)),
    ], ids=["1d", "2d-simplex", "2d-square", "3d", "4d"])
    def test_matches_one_cell_at_a_time(self, poly, tols):
        region = triangulate(poly)
        for tol in tols:
            res, calls, ref_calls = self.check(peaked, region, tol, 10 ** 6)
            assert res.converged and res.cells_used > len(region.simplices)
            assert calls < ref_calls

    @pytest.mark.parametrize("poly, tol", [
        (library.square(1), 1e-13), (library.corrected_square(), 1e-10),
        (box(3), 1e-10)], ids=["2d", "2d-corrected", "3d"])
    def test_exact_error_ties(self, poly, tol):
        res, _, _ = self.check(first_coordinate, triangulate(poly), tol,
                               10 ** 6)
        assert res.converged and res.cells_used > 100

    @pytest.mark.parametrize("budget", [5, 64, 300, 1000])
    def test_stopped_by_budget(self, budget):
        region = triangulate(library.corrected_square())
        res, _, _ = self.check(peaked, region, 1e-12, budget)
        assert res.hit_budget and res.cells_used == budget

    def test_rounding_level_errors_under_budget(self):
        # a linear integrand is exact for both rules: every error is
        # rounding noise, many of them equal
        region = triangulate(library.square(1))
        res, _, _ = self.check(lambda x: 1 + x[:, 0] - 2 * x[:, 1], region,
                               0.0, 400)
        assert res.hit_budget

    def test_budget_warning(self, caplog, monkeypatch):
        region = triangulate(library.square(1))
        with caplog.at_level(logging.WARNING, logger="toricq.quadrature"):
            monkeypatch.setenv("TORICQ_CELL_BUDGET", "8")
            integrate(peaked, region, tol=1e-12)
            monkeypatch.delenv("TORICQ_CELL_BUDGET")
            integrate(peaked, region, tol=1e-3)
        assert [r.name for r in caplog.records] == ["toricq.quadrature"]
        assert "budget 8" in caplog.records[0].getMessage()


def shifted_peak(c):
    return lambda x: np.exp(-8 * np.sum((x - c) ** 2, axis=-1)) * (1 + x[:, 0])


def blows_up(x):
    # inf on part of the region: its cells' estimates are inf or nan
    return np.where(x[:, 0] > 0.7, np.inf, 1 + x[:, 0])


# integrands of one lockstep member each: peaks at different places, so
# that the members refine differently, and one whose values are not finite
MEMBERS = [shifted_peak(0.2), shifted_peak(0.6), first_coordinate, blows_up]
LOCKSTEP_REGIONS = {1: library.segment(0, 1), 2: library.corrected_square(),
                    3: box(3), 4: box(4)}


def fields(res):
    # repr keeps every bit of a float and makes nan equal to nan
    return repr(tuple(res))


class TestLockstep:
    """Integrals refined in lockstep share their integrand calls; each must
    give the result of `integrate` alone, and of greedy refinement one
    cell at a time, on every field."""

    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(dim=st.integers(1, 4), tol=st.sampled_from([1e-2, 1e-4, 1e-6]),
           budget=st.sampled_from([None, 3, 40, 300]),
           which=st.lists(st.integers(0, len(MEMBERS) - 1), min_size=1,
                          max_size=4))
    # a budget that stops two members but not the third, which converges
    @example(dim=2, tol=1e-6, budget=30, which=[0, 2, 1])
    # a member whose values are not finite, between finite ones
    @example(dim=1, tol=1e-6, budget=50, which=[0, 3, 1])
    def test_each_member_as_alone(self, dim, tol, budget, which):
        region = triangulate(LOCKSTEP_REGIONS[dim])
        fs = [MEMBERS[i] for i in which]
        sizes = []

        def f(x, starts):
            sizes.append(len(x))
            return np.concatenate([g(x[a:b]) for g, a, b in
                                   zip(fs, starts, starts[1:])])

        with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
            if budget:
                mp.setenv("TORICQ_CELL_BUDGET", str(budget))
            results = list(integrate_lockstep(f, region, tol, len(fs)))
            alone = [integrate(g, region, tol) for g in fs]
        assert list(map(fields, results)) == list(map(fields, alone))
        budget = budget or cell_budget()
        for res, g in zip(results, fs):
            assert math.isfinite(res.value) == (g is not blows_up)
            if dim == 4 and budget > 300:
                continue
            with np.errstate(all="ignore"):
                value, err, cells, converged, _ = greedy_reference(
                    g, region, tol, budget)
            assert repr((res.value, res.error_estimate, res.cells_used,
                         res.converged)) == repr((value, err, cells, converged))
            assert res.hit_budget == (err > tol and cells >= budget)
        # each call holds the splits of at most _BATCH cells or the roots
        # of one integral, unless one integral asks for more alone
        q = SHARED_NODES[dim]
        cap = max(4 * q * _BATCH, 7 * q * len(region.simplices))
        assert max(sizes) <= cap
        assert len(sizes) <= sum(r.integrand_calls for r in results)
        assert len(sizes) >= max(r.integrand_calls for r in results)
        assert sum(sizes) == sum(r.nodes for r in results)

    def test_one_call_per_round(self):
        # small batches of three members share every call
        region = triangulate(library.corrected_square())
        fs = [shifted_peak(0.1), shifted_peak(0.5), shifted_peak(0.9)]
        calls = []

        def f(x, starts):
            calls.append(starts)
            return np.concatenate([g(x[a:b]) for g, a, b in
                                   zip(fs, starts, starts[1:])])

        results = list(integrate_lockstep(f, region, 1e-4, 3))
        assert len(calls) == max(r.integrand_calls for r in results) > 1
        assert sum(r.integrand_calls for r in results) > len(calls)


class TestNodeCount:
    def test_one_root_segment(self):
        # the segment rules share q = 13 distinct nodes, and without a
        # budget stop nodes = 4q cells - q roots + 4q u, u the roots never
        # split.  One root, which is split: nodes = 52 cells - 13
        res = integrate(peaked, triangulate(library.segment(0, 1)), 1e-9)
        assert res.cells_used > 1
        assert res.nodes == 52 * res.cells_used - 13

    @pytest.mark.parametrize("poly", [
        library.segment(0, 1), library.corrected_square(), box(3), box(4)],
        ids=["1d", "2d", "3d", "4d"])
    def test_converged_at_the_roots(self, poly):
        # the root call passes the shared nodes on each root's two halves,
        # on the root itself and on both halves of its two children, and
        # nothing else is evaluated: one call, 7 q nodes per root
        region = triangulate(poly)
        f, nodes = counting(lambda x: np.ones(len(x)))
        res = integrate(f, region, 1e-3)
        assert res.converged and res.cells_used == len(region.simplices)
        assert nodes == [7 * SHARED_NODES[poly.dim] * len(region.simplices)]
        assert res.nodes == nodes[0]

    @pytest.mark.parametrize("poly, budget", [
        (library.corrected_square(), 10 ** 6),
        (library.corrected_square(), 64),
        (box(3), 10 ** 6)], ids=["2d", "2d-budget", "3d"])
    def test_counts_what_f_is_given(self, monkeypatch, poly, budget):
        monkeypatch.setenv("TORICQ_CELL_BUDGET", str(budget))
        f, nodes = counting(peaked)
        res = integrate(f, triangulate(poly), 1e-6)
        assert res.nodes == sum(nodes) > 0

    def test_slices(self):
        one = lambda y: np.ones(len(y))
        point = integrate_slice(one, library.corrected_segment(), 1, (0,),
                                tol=1e-10)
        empty = integrate_slice(one, library.simplex(2), 1, (3,), tol=1e-10)
        assert (point.nodes, empty.nodes) == (1, 0)


class TestIntegrateSlice:
    def test_square_slice_length(self):
        res = integrate_slice(lambda y: np.ones(len(y)),
                              library.corrected_square(), 1, (0,), tol=1e-10)
        assert res.value == pytest.approx(2.0, abs=1e-10)

    def test_point_slice(self):
        res = integrate_slice(lambda y: np.full(len(y), 7.5),
                              library.corrected_segment(), 1, (0,), tol=1e-10)
        assert res.value == 7.5
        assert res.converged

    def test_empty_slice(self):
        for level in ((3,), (-1,)):
            res = integrate_slice(lambda y: np.ones(len(y)),
                                  library.simplex(2), 1, level, tol=1e-10)
            assert res.value == 0.0
            assert res.converged

    def test_product_factorization(self):
        # slice integral of f(x2) over [-1/2,3/2]^2 at x1=0 equals the 1D
        # integral of f over [-1/2,3/2]
        f1 = lambda t: np.exp(-t ** 2)
        res2 = integrate_slice(lambda y: f1(y[:, 0]),
                               library.corrected_square(), 1, (0,), tol=1e-10)
        region = triangulate(library.corrected_segment())
        res1 = integrate(lambda x: f1(x[:, 0]), region, tol=1e-10)
        assert res2.value == pytest.approx(res1.value, abs=1e-9)
