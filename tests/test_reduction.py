import itertools
import math
import re
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from exact_oracles import per_level_report
from test_polytope import unimodular, unit
from toricq import library, reduction
from toricq.polytope import (DelzantPolytope, FrameChange, HPolytope,
                             PolytopeError, _slice_incidence,
                             apply_frame_change, axis_slice)
from toricq.potential import guillemin_potential
from toricq.reduction import (
    CLASS_DELZANT,
    CLASS_ORBIFOLD,
    CLASS_WORSE,
    c3_reduction,
    classify_polytope,
    reduce,
    reduced_potential,
    reduced_scalar_curvature,
    reduction_level_report,
)


class TestClassification:
    def test_square_and_simplex_smooth(self):
        assert classify_polytope(library.corrected_square()) == CLASS_DELZANT
        assert classify_polytope(library.simplex(2)) == CLASS_DELZANT

    def test_orbifold_triangle(self):
        tri = HPolytope.from_data(
            2, [((1, 0), 0), ((0, 1), 0), ((-1, -2), 2)])
        assert classify_polytope(tri) == CLASS_ORBIFOLD

    def test_rational_normals_rescaled(self):
        # same triangle with non-primitive rational data
        tri = HPolytope.from_data(
            2, [(("1/3", 0), 0), ((0, "1/2"), 0), (("-2", "-4"), 4)])
        assert classify_polytope(tri) == CLASS_ORBIFOLD

    def test_corner_with_extra_facet_is_worse(self):
        quad = HPolytope.from_data(
            2, [((1, 0), 0), ((0, 1), 0), ((1, 1), 0)])
        assert classify_polytope(quad) == CLASS_WORSE


class TestReducedPotential:
    def test_restriction_identity(self):
        poly = library.corrected_square()
        amb = guillemin_potential(poly)
        red = reduced_potential(poly, 1, (0,))
        rng = np.random.default_rng(9)
        for _ in range(25):
            y = -0.4 + 1.8 * rng.random(1)
            full = amb.value(np.array([0.0, y[0]]))
            assert red.value(y) == pytest.approx(full, rel=1e-14)
            assert red.grad(y)[0] == pytest.approx(
                amb.grad(np.array([0.0, y[0]]))[1], rel=1e-13)
            assert red.hess(y)[0, 0] == pytest.approx(
                amb.hess(np.array([0.0, y[0]]))[1, 1], rel=1e-13)

    def test_level_outside_projection(self):
        with pytest.raises(PolytopeError):
            reduced_potential(library.corrected_square(), 1, (7,))

    def test_reduce_bundles(self):
        structure = reduce(library.corrected_square(), 1, (0,))
        assert structure.classification == CLASS_DELZANT
        assert structure.slice.dim == 1
        assert structure.p == 1

    def test_empty_slice_rejected(self):
        with pytest.raises(PolytopeError):
            reduce(library.simplex(2), 1, (5,))

    def test_reduced_curvature_segment(self):
        # the slice of the shifted square is a length-2 segment: S = 2/2 = 1
        structure = reduce(library.corrected_square(), 1, (0,))
        S = reduced_scalar_curvature(structure, np.array([0.5]))
        assert S == pytest.approx(1.0, abs=1e-6)


class TestC3Family:
    def test_zero_level_is_worse(self):
        assert c3_reduction(2, 2, 0).classification == CLASS_WORSE
        assert c3_reduction(1, 1, 0).classification == CLASS_WORSE

    def test_positive_level_is_smooth(self):
        assert c3_reduction(2, 2, 1).classification == CLASS_DELZANT

    def test_curvature_closed_form(self):
        # equal weights alpha: S = 2 alpha / ((alpha + 1)(x1 + x2))
        structure = c3_reduction(2, 2, 0)
        assert reduced_scalar_curvature(
            structure, [1.0, 1.0]) == pytest.approx(2.0 / 3.0, abs=1e-6)
        assert reduced_scalar_curvature(
            structure, [2.0, 2.0]) == pytest.approx(1.0 / 3.0, abs=1e-6)
        assert reduced_scalar_curvature(
            c3_reduction(1, 1, 0), [1.0, 1.0]) == pytest.approx(0.5, abs=1e-6)

    def test_curvature_blows_up_toward_corner(self):
        structure = c3_reduction(2, 2, 0)
        vals = [reduced_scalar_curvature(structure, [t, t]) * t
                for t in (1.0, 0.5, 0.25, 0.125)]
        # S(t, t) * t is constant, so S itself blows up like 1/t
        assert max(vals) - min(vals) <= 1e-4

    def test_bad_weights(self):
        with pytest.raises(ValueError):
            c3_reduction(0, 1, 0)
        with pytest.raises(ValueError):
            c3_reduction(1, 1, -1)


def fibre_sizes(poly, p):
    """(levels, dims) of the non-empty lattice fibres, in lexicographic
    order, read off the rows of the level report."""
    rows, _, _ = reduction_level_report(poly, p)
    fibres = [(tuple(r["c"]), r["dim"]) for r in rows if r["dim"]]
    return [lv for lv, _ in fibres], [n for _, n in fibres]


class TestDimensionAudit:
    def test_simplex_levels(self):
        levels, dims = fibre_sizes(library.simplex(2), 1)
        assert levels == [(0,), (1,), (2,)]
        assert dims == [3, 2, 1]
        assert sum(dims) == 6

    def test_random_frame_changes_preserve_dims_total(self):
        poly = library.simplex(2)
        shear = FrameChange(B=((1, 1), (0, 1)), p=1)
        moved = apply_frame_change(poly, shear)
        _, dims0 = fibre_sizes(poly, 1)
        _, dims1 = fibre_sizes(moved, 1)
        assert sum(dims0) == sum(dims1)


def rectangle(a, b):
    return DelzantPolytope.from_data(
        2, [((1, 0), 0), ((-1, 0), a), ((0, 1), 0), ((0, -1), b)])


class TestFibreCounts:
    """Each level's fibre size is added up from the last-coordinate ranges
    of the lattice walk, with no lattice point listed."""

    @pytest.mark.parametrize("poly,p", [
        (rectangle(3, 50), 1), (rectangle(2, 7), 2), (library.simplex(6), 1),
        (library.simplex(6), 2), (library.corrected_square(), 1),
        (apply_frame_change(rectangle(4, 9), FrameChange(((1, 3), (0, 1)),
                                                         1)), 1),
        (DelzantPolytope.from_data(3, [(unit(3, i, s), 2 + i)
                                       for i in range(3) for s in (1, -1)]),
         2),
        (apply_frame_change(library.simplex(5),
                            FrameChange(((1, 0), (-2, 1)), 1)), 1)],
        ids=["rect-p1", "rect-p2", "simplex-p1", "simplex-p2",
             "corrected-square", "sheared-rect", "box3-p2",
             "sheared-simplex"])
    def test_rows_equal_a_brute_force_count(self, poly, p):
        lo, hi = poly.bounding_box()
        box = [range(math.ceil(a), math.floor(b) + 1) for a, b in zip(lo, hi)]
        counts = Counter(m[:p] for m in itertools.product(*box)
                         if poly.contains(m))
        rows, total, ok = reduction_level_report(poly, p)
        assert [r["dim"] for r in rows] == [
            counts[c] for c in itertools.product(*box[:p])]
        assert ok and total == sum(counts.values())

    def test_long_fibres_take_no_memory(self):
        # 2 levels of 500,001 points each
        K = 5 * 10**5
        poly = rectangle(1, K)
        poly.is_bounded, poly.vertices
        tracemalloc.start()
        start = time.perf_counter()
        try:
            rows, total, ok = reduction_level_report(poly, 1)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [r["dim"] for r in rows] == [K + 1, K + 1]
        assert ok and total == 2 * (K + 1)
        assert elapsed < 0.2
        assert peak < 2**20


@st.composite
def level_report_inputs(draw):
    """(polytope, p) for n = 2-4 and any 1 <= p < n: a box with rational
    offsets, or a corner x >= 0 cut by a weighted facet whose apex levels
    slice to points, then up to two random integer cuts (non-Delzant and
    possibly redundant or emptying), a redundant copy of a facet, and a
    frame change by shears above or below the diagonal."""
    n = draw(st.integers(2, 4))
    if draw(st.booleans()):
        offsets = st.fractions(0, 2, max_denominator=3)
        facets = [(unit(n, i, sign), draw(offsets))
                  for i in range(n) for sign in (1, -1)]
    else:
        weights = draw(st.lists(st.integers(1, 2), min_size=n, max_size=n))
        facets = [(unit(n, i), 0) for i in range(n)]
        facets.append((tuple(-w for w in weights), draw(st.integers(1, 4))))
    facets += draw(st.lists(st.tuples(
        st.tuples(*[st.integers(-2, 2)] * n).filter(any),
        st.fractions(-1, 3, max_denominator=3)), max_size=2))
    if draw(st.booleans()):
        normal, offset = draw(st.sampled_from(facets))
        k = draw(st.integers(1, 2))
        facets.append((tuple(k * a for a in normal), k * offset + 1))
    poly = apply_frame_change(DelzantPolytope.from_data(n, facets),
                              FrameChange(B=draw(unimodular(n)), p=1))
    return poly, draw(st.integers(1, n - 1))


class TestLevelReportKeys:
    """A level's class is read off its slice type, an integer key per level;
    the slice is built and classified once per key.  The per-level path is
    the oracle."""

    @settings(max_examples=150, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(level_report_inputs())
    def test_matches_the_per_level_path(self, case):
        poly, p = case
        try:
            expected = per_level_report(poly, p)
        except PolytopeError as exc:
            with pytest.raises(PolytopeError, match=re.escape(str(exc))):
                reduction_level_report(poly, p)
            return
        rows, total, ok = reduction_level_report(poly, p)
        assert rows == expected
        assert ok and total == len(poly.lattice_points())
        # the key of a level is its slice's incidence, facets numbered as
        # in the slice, which keeps those with nonzero trailing normal
        at = _slice_incidence(poly.integer_facets, poly.dim, p)
        for row in rows:
            if row["dim"]:
                sl = axis_slice(poly, p, row["c"])
                assert at(tuple(row["c"])) == frozenset(sl.incidence)

    def test_simplex_builds_one_slice_per_type(self, monkeypatch):
        built = []

        def counted(poly, p, c):
            built.append(c)
            return axis_slice(poly, p, c)

        monkeypatch.setattr(reduction, "axis_slice", counted)
        rows, total, ok = reduction_level_report(library.simplex(20), 1)
        assert [r["class"] for r in rows] == ["delzant"] * 20 + ["degenerate"]
        assert ok and total == 231
        assert len(built) <= 3
