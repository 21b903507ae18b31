import itertools
import random
from fractions import Fraction

import pytest

from toricq import library
from toricq.polytope import (
    DelzantPolytope,
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
