import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from toricq import library
from toricq.polytope import (
    DelzantPolytope,
    Facet,
    FrameChange,
    HPolytope,
    PolytopeError,
    apply_frame_change,
    axis_slice,
    corrected_polytope,
    lattice_points,
    polytope_from_json,
    validate_delzant,
    vertex_chart,
)


def standard_simplex():
    return DelzantPolytope.from_data(
        2, [((1, 0), 0), ((0, 1), 0), ((-1, -1), 1)])


def unit(n, i, sign=1):
    return tuple(sign * int(j == i) for j in range(n))


@st.composite
def unimodular(draw, n):
    """An SL(n, Z) matrix: the identity under up to two row shears."""
    B = [list(unit(n, i)) for i in range(n)]
    if n > 1:
        for i, j, k in draw(st.lists(st.tuples(
                st.integers(0, n - 1), st.integers(0, n - 1),
                st.sampled_from([-1, 1])).filter(lambda t: t[0] != t[1]),
                max_size=2)):
            B[i] = [a + k * b for a, b in zip(B[i], B[j])]
    return tuple(map(tuple, B))


BOX_OFFSETS = st.sampled_from(
    [Fraction(k, d) for d in (1, 2, 3) for k in range(2 * d + 1)])


@st.composite
def bounded_polytopes(draw):
    """A box around the origin with rational offsets, cut by up to three
    random integer facets, in dimension 1-4; then either left as it is,
    given a non-integer rational normal, given a satisfied constant facet,
    sliced by axis_slice (possibly to an empty slice) or moved by an
    SL(n, Z) frame change."""
    n = draw(st.integers(1, 4))
    facets = [(unit(n, i, sign), draw(BOX_OFFSETS))
              for i in range(n) for sign in (1, -1)]
    facets += draw(st.lists(st.tuples(
        st.tuples(*[st.integers(-3, 3)] * n).filter(any),
        st.fractions(-2, 3, max_denominator=4)), max_size=3))
    poly = DelzantPolytope.from_data(n, facets)
    variant = draw(st.sampled_from(
        ["as drawn", "rational normal", "constant facet", "slice", "frame"]))
    if variant == "rational normal":
        r = draw(st.integers(0, len(facets) - 1))
        k = draw(st.integers(2, 3))
        normal, offset = facets[r]
        facets[r] = (tuple(Fraction(c, k) for c in normal), offset)
        return HPolytope.from_data(n, facets)
    if variant == "constant facet":
        return HPolytope(dim=n, facets=poly.facets + (
            Facet((Fraction(0),) * n, draw(st.fractions(0, 2))),))
    if variant == "slice" and n > 1:
        p = draw(st.integers(1, n - 1))
        level = st.integers(-3, 3) | st.fractions(-3, 3, max_denominator=2)
        c = draw(st.lists(level, min_size=p, max_size=p))
        return axis_slice(poly, p, c)
    if variant == "frame":
        fc = FrameChange(B=draw(unimodular(n)), p=1)
        return apply_frame_change(poly, fc)
    return poly


class TestValidate:
    def test_standard_simplex_ok(self):
        report = validate_delzant(standard_simplex())
        assert report.ok
        assert all(abs(d) == 1 for _, d in report.vertex_determinants)

    def test_non_delzant_triangle(self):
        # {x>=0, y>=0, -x-2y+2>=0}: vertex (0,1) has normals (1,0),(-1,-2)
        # with determinant -2; the other two vertices are unimodular.
        poly = DelzantPolytope.from_data(
            2, [((1, 0), 0), ((0, 1), 0), ((-1, -2), 2)])
        report = validate_delzant(poly)
        assert not report.ok
        bad = dict((v, d) for v, d in report.violations)
        assert (Fraction(0), Fraction(1)) in bad
        assert abs(bad[(Fraction(0), Fraction(1))]) == 2
        assert len(bad) == 1

    def test_half_integral_square_ok(self):
        report = validate_delzant(library.corrected_square())
        assert report.ok

    def test_unbounded(self):
        poly = DelzantPolytope.from_data(2, [((1, 0), 0), ((0, 1), 0)])
        report = validate_delzant(poly)
        assert not report.ok
        assert report.verdict == "unbounded"

    def test_empty(self):
        poly = DelzantPolytope.from_data(
            1, [((1,), 0), ((-1,), -1)])
        report = validate_delzant(poly)
        assert not report.ok
        assert report.verdict == "empty"

    def test_redundant_facet_rejected(self):
        poly = DelzantPolytope.from_data(
            1, [((1,), 0), ((-1,), 1), ((-1,), 5)])
        report = validate_delzant(poly)
        assert not report.ok
        assert report.redundant_facets == [2]

    def test_non_primitive_normal(self):
        poly = DelzantPolytope.from_data(1, [((2,), 0), ((-2,), 2)])
        report = validate_delzant(poly)
        assert not report.ok
        assert report.verdict == "bad normals"


class TestBoundedness:
    @settings(max_examples=100, derandomize=True, deadline=None,
              database=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.lists(
        st.tuples(*[st.fractions(-2, 2, max_denominator=4)] * n),
        min_size=1, max_size=7)))
    def test_matches_a_linear_program(self, normals):
        # with N of rank n, {d : N d >= 0} is {0} iff sum(N d) has maximum
        # 0 on that cone cut by the unit cube; floats are exact enough for
        # entries this small
        n = len(normals[0])
        poly = HPolytope.from_data(n, [(nu, 1) for nu in normals])
        N = np.array(normals, dtype=float)
        res = linprog(-N.sum(axis=0), A_ub=-N, b_ub=np.zeros(len(N)),
                      bounds=[(-1, 1)] * n, method="highs")
        pointed = np.linalg.matrix_rank(N) == n and -res.fun < 1e-9
        assert poly.is_bounded == pointed


class TestLatticePoints:
    def test_segment(self):
        assert lattice_points(library.segment(0, 3)) == [(0,), (1,), (2,), (3,)]

    def test_scaled_simplex(self):
        pts = lattice_points(library.simplex(2))
        # brute-force oracle over the bounding box
        expected = [
            (i, j) for i in range(0, 3) for j in range(0, 3) if i + j <= 2
        ]
        assert pts == sorted(expected)
        assert len(pts) == 6

    def test_corrected_square(self):
        pts = lattice_points(library.corrected_square())
        assert pts == [(0, 0), (0, 1), (1, 0), (1, 1)]

    @pytest.mark.parametrize("n, k", [(4, 30), (3, 40)])
    def test_dilated_simplex_count(self, n, k):
        # k times the standard n-simplex has C(n + k, n) lattice points
        poly = HPolytope.from_data(
            n, [(unit(n, i), 0) for i in range(n)] + [((-1,) * n, k)])
        assert len(lattice_points(poly)) == math.comb(n + k, n)

    def test_unbounded_is_rejected(self):
        poly = DelzantPolytope.from_data(2, [((1, 0), 0), ((0, 1), 0)])
        with pytest.raises(PolytopeError, match="bounded"):
            poly.lattice_points()

    @settings(max_examples=100, derandomize=True, deadline=None,
              database=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_matches_bounding_box_scan(self, data):
        poly = data.draw(bounded_polytopes())
        expected = []
        if poly.vertices:
            lo, hi = poly.bounding_box()
            box = [range(math.ceil(a), math.floor(b) + 1)
                   for a, b in zip(lo, hi)]
            expected = [m for m in itertools.product(*box)
                        if poly.contains(m)]
        pts = poly.lattice_points()
        assert pts == expected
        assert all(type(c) is int for m in pts for c in m)


class TestCorrectedPolytope:
    def test_unit_segment(self):
        corr = corrected_polytope(library.segment(0, 1))
        offs = [f.offset for f in corr.facets]
        assert offs == [Fraction(1, 2), Fraction(3, 2)]

    def test_unit_square(self):
        corr = corrected_polytope(library.square(1))
        assert [f.offset for f in corr.facets] == [
            Fraction(1, 2), Fraction(3, 2), Fraction(1, 2), Fraction(3, 2)]

    def test_lattice_points_preserved(self):
        base = library.segment(0, 2)
        corr = corrected_polytope(base)
        assert lattice_points(base) == lattice_points(corr)

    def test_rejects_invalid(self):
        poly = DelzantPolytope.from_data(
            2, [((1, 0), 0), ((0, 1), 0), ((-1, -2), 2)])
        with pytest.raises(PolytopeError):
            corrected_polytope(poly)


def random_sl2(rng):
    # random products of elementary shears are exactly SL(2, Z)
    from toricq.polytope import _det

    a = rng.randint(-3, 3)
    b = rng.randint(-3, 3)
    B = ((1, a), (0, 1))
    C = ((1, 0), (b, 1))
    M = tuple(
        tuple(sum(B[i][k] * C[k][j] for k in range(2)) for j in range(2))
        for i in range(2))
    assert _det(M) == 1
    return M


class TestFrameChange:
    def test_identity(self):
        poly = library.corrected_square()
        fc = FrameChange(B=((1, 0), (0, 1)), p=1)
        assert apply_frame_change(poly, fc).facets == poly.facets

    def test_shear_square(self):
        poly = corrected_polytope(library.square(1))
        fc = FrameChange(B=((1, 1), (0, 1)), p=1)
        sheared = apply_frame_change(poly, fc)
        assert len(lattice_points(sheared)) == 4

    def test_simplex_count_preserved(self):
        poly = standard_simplex()
        fc = FrameChange(B=((2, 1), (1, 1)), p=1)
        out = apply_frame_change(poly, fc)
        assert len(lattice_points(out)) == len(lattice_points(poly))

    def test_det_not_one_rejected(self):
        with pytest.raises(PolytopeError):
            FrameChange(B=((2, 0), (0, 1)), p=1)

    def test_random_sl2_invariance(self):
        rng = random.Random(7)
        polys = [standard_simplex(), library.simplex(2),
                 library.corrected_square()]
        for _ in range(20):
            B = random_sl2(rng)
            for poly in polys:
                out = apply_frame_change(poly, FrameChange(B=B, p=1))
                assert len(lattice_points(out)) == len(lattice_points(poly))

    def test_random_sl3_invariance(self):
        rng = random.Random(11)
        poly = DelzantPolytope.from_data(
            3,
            [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0),
             ((-1, -1, -1), 2)])
        for _ in range(5):
            # elementary shear in a random plane
            i, j = rng.sample(range(3), 2)
            B = [[int(r == c) for c in range(3)] for r in range(3)]
            B[i][j] = rng.randint(-3, 3)
            out = apply_frame_change(
                poly, FrameChange(B=tuple(map(tuple, B)), p=1))
            assert len(lattice_points(out)) == len(lattice_points(poly))


class TestVertexChart:
    def test_origin_of_simplex(self):
        chart = vertex_chart(standard_simplex(), 0)  # lex-first vertex (0,0)
        assert chart.vertex == (0, 0)
        assert chart.A_v == ((1, 0), (0, 1))

    def test_simplex_vertex_1_0(self):
        poly = standard_simplex()
        idx = poly.vertices.index((Fraction(1), Fraction(0)))
        chart = vertex_chart(poly, idx)
        assert chart.A_v == ((0, 1), (-1, -1))
        assert chart.apply((1, 0)) == (0, 0)

    def test_square_corner(self):
        poly = library.corrected_square()
        idx = poly.vertices.index((Fraction(-1, 2), Fraction(-1, 2)))
        chart = vertex_chart(poly, idx)
        assert chart.A_v == ((1, 0), (0, 1))
        assert chart.lambda_v == (Fraction(1, 2), Fraction(1, 2))

    def test_charts_map_into_orthant(self):
        for poly in library.shipped_polytopes():
            for i in range(len(poly.vertices)):
                chart = vertex_chart(poly, i)
                for v in poly.vertices:
                    assert all(c >= 0 for c in chart.apply(v))

    def test_non_delzant_vertex_errors(self):
        poly = DelzantPolytope.from_data(
            2, [((1, 0), 0), ((0, 1), 0), ((-1, -2), 2)])
        idx = poly.vertices.index((Fraction(0), Fraction(1)))
        with pytest.raises(PolytopeError, match="determinant"):
            vertex_chart(poly, idx)


class TestAxisSlice:
    def test_square_slice(self):
        sl = axis_slice(library.corrected_square(), 1, (0,))
        vals = sorted(v[0] for v in sl.vertices)
        assert vals == [Fraction(-1, 2), Fraction(3, 2)]

    def test_simplex_slice(self):
        poly = library.simplex(2)
        sl = axis_slice(poly, 1, (1,))
        assert sorted(v[0] for v in sl.vertices) == [0, 1]

    def test_empty_slice(self):
        poly = library.simplex(2)
        sl = axis_slice(poly, 1, (3,))
        assert sl.is_empty

    def test_slice_commutes_with_enumeration(self):
        poly = library.simplex(2)
        full = lattice_points(poly)
        for c in range(-1, 4):
            sl = axis_slice(poly, 1, (c,))
            sliced = lattice_points(sl)
            expected = sorted(m[1:] for m in full if m[0] == c)
            assert sliced == expected

    def test_violated_constant_facet_is_kept(self):
        # at x1 = -1 the facet x1 >= 0 becomes the constant -1 >= 0
        sl = axis_slice(library.simplex(2), 1, (-1,))
        assert type(sl) is HPolytope
        assert any(f.normal == (0,) and f.offset == -1 for f in sl.facets)
        assert sl.is_empty
        assert sl.vertices == ()

    def test_empty_polytope_has_no_bounding_box(self):
        poly = DelzantPolytope.from_data(
            1, [((1,), Fraction(1, 2)), ((-1,), Fraction(-3, 2))])
        with pytest.raises(PolytopeError, match="empty"):
            poly.bounding_box()


class TestJson:
    def test_roundtrip_half_offsets(self):
        poly = polytope_from_json(
            {"dim": 1,
             "facets": [{"normal": [1], "offset": "1/2"},
                        {"normal": [-1], "offset": "3/2"}]})
        assert poly.facets[0].offset == Fraction(1, 2)

    def test_missing_key(self):
        with pytest.raises(PolytopeError, match="facets"):
            polytope_from_json({"dim": 2})

    @pytest.mark.parametrize("dim", [0, -1])
    def test_dimension_must_be_positive(self, dim):
        with pytest.raises(PolytopeError, match="at least 1"):
            polytope_from_json({"dim": dim, "facets": []})

    @pytest.mark.parametrize("dim", [1.9, True, "2"])
    def test_dimension_must_be_an_integer(self, dim):
        with pytest.raises(PolytopeError, match="must be an integer"):
            polytope_from_json({"dim": dim, "facets": [
                {"normal": [1], "offset": 0}, {"normal": [-1], "offset": 1}]})
