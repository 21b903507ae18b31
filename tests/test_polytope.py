import itertools
import logging
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from exact_oracles import (as_fractions, cofactor_det, facet_value,
                           fraction_affine_rank, fraction_face_fan,
                           fraction_incidence, fraction_simplex_volume,
                           gauss_jordan, subset_incidence, subset_is_bounded,
                           vertex_incidence)
from toricq import library
from toricq.polytope import (
    DelzantPolytope,
    Facet,
    FrameChange,
    HPolytope,
    PolytopeError,
    ValidationReport,
    _affine_rank,
    _fraction_free,
    apply_frame_change,
    axis_slice,
    polytope_from_json,
    validate_delzant,
)
from toricq.quadrature import triangulate


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
        fc = FrameChange(B=draw(unimodular(n)))
        return apply_frame_change(poly, fc)
    return poly


class TestValidate:
    def test_standard_simplex_ok(self):
        report = validate_delzant(standard_simplex())
        assert report.ok
        assert report.violations == []

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
        assert report.verdict == "redundant"
        assert report.messages == ["redundant facets: [2]"]

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
        pts = library.segment(0, 3).lattice_points()
        assert pts == [(0,), (1,), (2,), (3,)]

    def test_scaled_simplex(self):
        pts = library.simplex(2).lattice_points()
        # brute-force oracle over the bounding box
        expected = [
            (i, j) for i in range(0, 3) for j in range(0, 3) if i + j <= 2
        ]
        assert pts == sorted(expected)
        assert len(pts) == 6

    def test_corrected_square(self):
        pts = library.corrected_square().lattice_points()
        assert pts == [(0, 0), (0, 1), (1, 0), (1, 1)]

    @pytest.mark.parametrize("n, k", [(4, 30), (3, 40)])
    def test_dilated_simplex_count(self, n, k):
        # k times the standard n-simplex has C(n + k, n) lattice points
        poly = HPolytope.from_data(
            n, [(unit(n, i), 0) for i in range(n)] + [((-1,) * n, k)])
        assert len(poly.lattice_points()) == math.comb(n + k, n)

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


def random_sl2(rng):
    # random products of elementary shears are exactly SL(2, Z)
    a = rng.randint(-3, 3)
    b = rng.randint(-3, 3)
    B = ((1, a), (0, 1))
    C = ((1, 0), (b, 1))
    M = tuple(
        tuple(sum(B[i][k] * C[k][j] for k in range(2)) for j in range(2))
        for i in range(2))
    assert cofactor_det(M) == 1
    return M


class TestFrameChange:
    def test_identity(self):
        poly = library.corrected_square()
        fc = FrameChange(B=((1, 0), (0, 1)))
        assert apply_frame_change(poly, fc).facets == poly.facets

    def test_shear_square(self):
        poly = library.corrected_square()
        fc = FrameChange(B=((1, 1), (0, 1)))
        sheared = apply_frame_change(poly, fc)
        assert len(sheared.lattice_points()) == 4

    def test_simplex_count_preserved(self):
        poly = standard_simplex()
        fc = FrameChange(B=((2, 1), (1, 1)))
        out = apply_frame_change(poly, fc)
        assert len(out.lattice_points()) == len(poly.lattice_points())

    def test_det_not_one_rejected(self):
        with pytest.raises(PolytopeError):
            FrameChange(B=((2, 0), (0, 1)))

    def test_random_sl2_invariance(self):
        rng = random.Random(7)
        polys = [standard_simplex(), library.simplex(2),
                 library.corrected_square()]
        for _ in range(20):
            B = random_sl2(rng)
            for poly in polys:
                out = apply_frame_change(poly, FrameChange(B=B))
                assert (len(out.lattice_points())
                        == len(poly.lattice_points()))

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
                poly, FrameChange(B=tuple(map(tuple, B))))
            assert len(out.lattice_points()) == len(poly.lattice_points())


class TestAxisSlice:
    def test_square_slice(self):
        sl = axis_slice(library.corrected_square(), 1, (0,))
        vals = sorted(v[0] for v in as_fractions(sl.vertices))
        assert vals == [Fraction(-1, 2), Fraction(3, 2)]

    def test_simplex_slice(self):
        poly = library.simplex(2)
        sl = axis_slice(poly, 1, (1,))
        assert sorted(v[0] for v in as_fractions(sl.vertices)) == [0, 1]

    def test_empty_slice(self):
        poly = library.simplex(2)
        sl = axis_slice(poly, 1, (3,))
        assert sl.is_empty

    def test_slice_commutes_with_enumeration(self):
        poly = library.simplex(2)
        full = poly.lattice_points()
        for c in range(-1, 4):
            sl = axis_slice(poly, 1, (c,))
            sliced = sl.lattice_points()
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


class TestRationalisedOffsets:
    def test_float_offset_that_changes_warns(self, caplog):
        with caplog.at_level(logging.WARNING, logger="toricq.polytope"):
            poly = polytope_from_json({"dim": 1, "facets": [
                {"normal": [1], "offset": 0.1},
                {"normal": [-1], "offset": 1}]})
        assert poly.facets[0].offset == Fraction(1, 10)
        assert [r.name for r in caplog.records] == ["toricq.polytope"]
        assert "0.1" in caplog.records[0].getMessage()

    def test_exact_float_offset_is_silent(self, caplog):
        with caplog.at_level(logging.WARNING, logger="toricq.polytope"):
            poly = polytope_from_json({"dim": 1, "facets": [
                {"normal": [1], "offset": 0.5},
                {"normal": [-1], "offset": 1}]})
        assert poly.facets[0].offset == Fraction(1, 2)
        assert caplog.records == []


# ---------------------------------------------------------------------------
# Fraction oracle: the exact geometry as computed before the integer facet
# form, by Fraction Gauss-Jordan elimination, cofactor determinants and
# Fraction facet values.


def oracle_incidence(poly):
    n = poly.dim
    tried, out = set(), {}
    for idxs in itertools.combinations(range(len(poly.facets)), n):
        rows = [poly.facets[r].normal + (-poly.facets[r].offset,)
                for r in idxs]
        M, pivots = gauss_jordan(rows, n)
        if len(pivots) < n:
            continue
        x = tuple(row[n] for row in M)
        if x in tried:
            continue
        tried.add(x)
        values = [facet_value(f, x) for f in poly.facets]
        if all(v >= 0 for v in values):
            out[x] = tuple(r for r, v in enumerate(values) if v == 0)
    return {x: out[x] for x in sorted(out)}


def oracle_affine_rank(points, dim):
    if not points:
        return -1
    return len(gauss_jordan([[a - b for a, b in zip(v, points[0])]
                             for v in points[1:]], dim)[1])


def oracle_is_bounded(poly):
    n = poly.dim
    N = [f.normal for f in poly.facets]
    if len(gauss_jordan(N, n)[1]) < n:
        return False
    for rows in itertools.combinations(N, n - 1):
        d = [(-1) ** j * cofactor_det([r[:j] + r[j + 1:] for r in rows])
             for j in range(n)]
        for sign in (1, -1):
            if any(d) and all(sign * sum(a * b for a, b in zip(nu, d)) >= 0
                              for nu in N):
                return False
    return True


def oracle_lattice_points(poly, incidence):
    if not incidence:
        return []
    box = [range(math.ceil(min(c)), math.floor(max(c)) + 1)
           for c in zip(*incidence)]
    return [m for m in itertools.product(*box)
            if all(facet_value(f, m) >= 0 for f in poly.facets)]


def oracle_primitive(normal):
    s = math.lcm(*(c.denominator for c in normal))
    nu = [int(c * s) for c in normal]
    return tuple(c // math.gcd(*nu) for c in nu)


def oracle_validate(poly):
    """validate_delzant, step by step, on the oracle's geometry."""
    incidence = oracle_incidence(poly)
    bad = [r for r, f in enumerate(poly.facets)
           if oracle_primitive(f.normal) != f.normal]
    if bad:
        return ValidationReport(ok=False, verdict="bad normals", messages=[
            f"facet {r}: normal {tuple(map(int, poly.facets[r].normal))} "
            "is not primitive" for r in bad])
    if not oracle_is_bounded(poly):
        return ValidationReport(ok=False, verdict="unbounded",
                                messages=["recession cone is nontrivial"])
    if oracle_affine_rank(list(incidence), poly.dim) < poly.dim:
        return ValidationReport(ok=False, verdict="empty",
                                messages=["interior is empty"])
    report = ValidationReport(ok=True, verdict="ok")
    redundant = [
        r for r in range(len(poly.facets))
        if oracle_affine_rank([v for v, a in incidence.items() if r in a],
                              poly.dim) < poly.dim - 1]
    if redundant:
        report.ok, report.verdict = False, "redundant"
        report.messages.append(f"redundant facets: {redundant}")
    for v, active in incidence.items():
        det = (cofactor_det([poly.facets[r].normal for r in active])
               if len(active) == poly.dim else None)
        if det is None or abs(det) != 1:
            report.violations.append((v, det))
    if report.violations:
        report.ok = False
        if report.verdict == "ok":
            report.verdict = "not delzant"
        report.messages.append("non-unimodular vertices: " + ", ".join(
            f"{v} det={d}" for v, d in report.violations))
    return report


# normal entries with denominators, so the facet scale is not the offset's
ENTRIES = [Fraction(k, 2) for k in range(-4, 5)]
# box normals of length >= 1 keep the bounding box, and the oracle's scan
# of it, small
BOX_SCALES = [Fraction(1), Fraction(1), Fraction(3, 2), Fraction(2)]


@st.composite
def rational_polytopes(draw, integer_normals=False):
    """A box with rational normals and offsets in dimension 1-4, a facet
    dropped now and then (so it may be unbounded) and offsets possibly
    negative (so it may be empty), cut by up to three more facets."""
    n = draw(st.integers(1, 4))
    scales = [1] if integer_normals else BOX_SCALES
    entries = [-1, 0, 1] if integer_normals else ENTRIES
    facets = []
    for i in range(n):
        for sign in (1, -1):
            if draw(st.sampled_from([True] * 15 + [False])):
                k = draw(st.sampled_from(scales))
                facets.append((unit(n, i, sign * k), draw(
                    st.fractions(Fraction(-1, 2), 2, max_denominator=3))))
    facets += draw(st.lists(st.tuples(
        st.tuples(*[st.sampled_from(entries)] * n).filter(any),
        st.fractions(-1, 3, max_denominator=4)), max_size=3))
    cls = DelzantPolytope if integer_normals else HPolytope
    return cls.from_data(n, facets)


SQUARE_PYRAMID = DelzantPolytope.from_data(  # four facets through the apex
    3, [((0, 0, 1), 0), ((1, 0, -1), 0), ((0, 1, -1), 0),
        ((-1, 0, -1), 2), ((0, -1, -1), 2)])
EMPTY_SQUARE = DelzantPolytope.from_data(
    2, [((1, 0), -1), ((-1, 0), 0), ((0, 1), 0), ((0, -1), 1)])
CUT_QUADRANT = DelzantPolytope.from_data(
    2, [((1, 0), 0), ((0, 1), 0), ((1, 1), -1)])
NOT_DELZANT = DelzantPolytope.from_data(
    2, [((1, 0), 0), ((0, 1), 0), ((-1, -2), 2)])


class TestIntegerFacetForm:
    @settings(max_examples=120, derandomize=True, deadline=None,
              database=None, suppress_health_check=[HealthCheck.too_slow])
    @example(SQUARE_PYRAMID)
    @example(EMPTY_SQUARE)
    @example(CUT_QUADRANT)
    @example(NOT_DELZANT)
    @given(st.booleans().flatmap(
        lambda integer: rational_polytopes(integer_normals=integer)))
    def test_matches_the_fraction_oracle(self, poly):
        for f, row in zip(poly.facets, poly.integer_facets):
            data = f.normal + (f.offset,)
            s = math.lcm(*(c.denominator for c in data))
            assert row == tuple(c * s for c in data)
            assert all(type(c) is int for c in row)
        incidence = oracle_incidence(poly)
        assert vertex_incidence(poly) == incidence
        assert as_fractions(poly.vertices) == tuple(incidence)
        assert poly.is_bounded == oracle_is_bounded(poly)
        if poly.is_bounded:
            assert poly.lattice_points() == oracle_lattice_points(
                poly, incidence)
        else:
            with pytest.raises(PolytopeError, match="bounded"):
                poly.lattice_points()
        assert validate_delzant(poly) == oracle_validate(poly)

    def test_named_cases(self):
        apex = (Fraction(1), Fraction(1), Fraction(1))
        assert vertex_incidence(SQUARE_PYRAMID)[apex] == (1, 2, 3, 4)
        assert len(SQUARE_PYRAMID.lattice_points()) == 10
        assert validate_delzant(SQUARE_PYRAMID).verdict == "not delzant"
        assert validate_delzant(EMPTY_SQUARE).verdict == "empty"
        assert not CUT_QUADRANT.is_bounded
        assert validate_delzant(CUT_QUADRANT).verdict == "unbounded"
        assert validate_delzant(NOT_DELZANT).verdict == "not delzant"

    @settings(max_examples=100, derandomize=True, deadline=None,
              database=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_frame_change_keeps_the_vertex_structure(self, data):
        poly = data.draw(rational_polytopes(integer_normals=True))
        B = data.draw(unimodular(poly.dim))
        moved = apply_frame_change(poly, FrameChange(B=B))
        assert len(moved.vertices) == len(poly.vertices)
        assert (Counter(map(len, moved.incidence))
                == Counter(map(len, poly.incidence)))
        assert moved.is_bounded == poly.is_bounded

    @settings(max_examples=100, derandomize=True, deadline=None,
              database=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_slice_matches_the_fraction_definition(self, data):
        poly = data.draw(rational_polytopes().filter(lambda P: P.dim > 1))
        p = data.draw(st.integers(1, poly.dim - 1))
        c = data.draw(st.lists(st.fractions(-2, 2, max_denominator=6),
                               min_size=p, max_size=p))
        expected = []
        for f in poly.facets:
            lam = f.offset + sum(a * b for a, b in zip(c, f.normal))
            if lam < 0 or any(f.normal[p:]):
                expected.append(Facet(f.normal[p:], lam))
        assert axis_slice(poly, p, c).facets == tuple(expected)

    @settings(max_examples=100, derandomize=True, deadline=None,
              database=None)
    @given(st.integers(1, 5).flatmap(lambda k: st.tuples(
        st.integers(1, k),
        st.lists(st.lists(st.fractions(-3, 3, max_denominator=3),
                          min_size=k, max_size=k), min_size=1, max_size=5))))
    def test_eliminate_matches_gauss_jordan(self, case):
        # columns past ncols are carried along, as in an augmented [A | B]
        ncols, rows = case
        # repeat a combination of rows, so some inputs are rank deficient
        rows = rows + [[a + 2 * b for a, b in zip(rows[0], rows[-1])]]
        # a positive scale per row leaves the reduced echelon form alone
        ints = [[int(e * math.lcm(*(c.denominator for c in row)))
                 for e in row] for row in rows]
        M, pivots, _ = _fraction_free(ints, ncols)
        M0, pivots0 = gauss_jordan(rows, ncols)
        assert pivots == pivots0
        # the pivot rows are d times the Fraction rows, for the last pivot d
        d = M[len(pivots) - 1][pivots[-1]] if pivots else 1
        assert d != 0
        assert all(type(e) is int for row in M for e in row)
        assert M[:len(pivots)] == [[d * e for e in row]
                                   for row in M0[:len(pivots)]]


# ---------------------------------------------------------------------------
# the facet-subset walk against the loops that eliminate every subset alone


@st.composite
def walk_polytopes(draw):
    """Dimension 1-4 and 1-8 facets with small integer normals and rational
    offsets: now and then a box to start from (bounded or empty), then
    random facets (half-spaces, slabs, cones, fewer facets than n, pivot
    columns out of order), copies of drawn facets scaled by +-k (redundant
    and parallel pairs), all in a drawn order."""
    n = draw(st.integers(1, 4))
    offsets = st.fractions(-2, 2, max_denominator=3)
    facets = []
    if draw(st.booleans()):
        facets = [(unit(n, i, sign), draw(st.fractions(
            -1, 2, max_denominator=3))) for i in range(n) for sign in (1, -1)]
    facets += draw(st.lists(st.tuples(
        st.tuples(*[st.integers(-2, 2)] * n).filter(any), offsets),
        min_size=0 if facets else 1, max_size=8 - len(facets)))
    for normal, _ in draw(st.lists(st.sampled_from(facets), max_size=2)):
        k = draw(st.sampled_from([1, 2, -1, -2]))
        facets.append((tuple(k * a for a in normal), draw(offsets)))
    return HPolytope.from_data(n, draw(st.permutations(facets))[:8])


HALF_PLANE = HPolytope.from_data(2, [((1, 1), 0)])
SLAB = HPolytope.from_data(2, [((0, 1), 0), ((0, -1), 1)])
CONE = HPolytope.from_data(3, [((1, 0, 0), 0), ((0, 1, 0), 0),
                               ((0, 0, 1), 0)])
EMPTY_SLAB = HPolytope.from_data(1, [((1,), -2), ((-1,), 1)])
TWICE_CUT_SQUARE = HPolytope.from_data(
    2, [((1, 0), 0), ((2, 0), 1), ((-1, 0), 1), ((0, 1), 0), ((0, -1), 1),
        ((0, -1), 1)])
FEWER_THAN_N = HPolytope.from_data(3, [((1, 2, 0), 1), ((0, 0, 1), 0)])
# the walk pivots on columns 2, 1, 0 in turn
REVERSED_PIVOTS = HPolytope.from_data(
    3, [((0, 0, 1), 0), ((0, 1, 0), 0), ((1, 0, 0), 0), ((-1, -1, -1), 2)])


class TestFacetWalk:
    @settings(max_examples=300, derandomize=True, deadline=None,
              database=None, suppress_health_check=[HealthCheck.too_slow])
    @example(HALF_PLANE)
    @example(SLAB)
    @example(CONE)
    @example(EMPTY_SLAB)
    @example(EMPTY_SQUARE)
    @example(TWICE_CUT_SQUARE)
    @example(SQUARE_PYRAMID)
    @example(FEWER_THAN_N)
    @example(REVERSED_PIVOTS)
    @given(walk_polytopes())
    def test_matches_the_subset_loops(self, poly):
        expected = subset_incidence(poly)
        assert list(vertex_incidence(poly).items()) == list(expected.items())
        assert as_fractions(poly.vertices) == tuple(expected)
        assert poly.is_bounded == subset_is_bounded(poly)

    def test_named_cases(self):
        assert not HALF_PLANE.is_bounded and not HALF_PLANE.vertices
        assert not SLAB.is_bounded and not SLAB.vertices
        assert not CONE.is_bounded and list(vertex_incidence(CONE).items()) == [
            ((0, 0, 0), (0, 1, 2))]
        assert EMPTY_SLAB.is_bounded and EMPTY_SLAB.is_empty
        assert not FEWER_THAN_N.is_bounded
        assert as_fractions(TWICE_CUT_SQUARE.vertices) == (
            (0, 0), (0, 1), (1, 0), (1, 1))
        assert vertex_incidence(TWICE_CUT_SQUARE)[0, 1] == (0, 4, 5)
        assert REVERSED_PIVOTS.is_bounded
        assert vertex_incidence(REVERSED_PIVOTS) == {
            (0, 0, 0): (0, 1, 2), (0, 0, 2): (1, 2, 3), (0, 2, 0): (0, 2, 3),
            (2, 0, 0): (0, 1, 3)}


class TestIntegerVertexRows:
    """The integer vertex rows (X, L) against the Fraction geometry that
    toricq computed before them."""

    @settings(max_examples=200, derandomize=True, deadline=None,
              database=None, suppress_health_check=[HealthCheck.too_slow])
    @example(EMPTY_SLAB)
    @example(TWICE_CUT_SQUARE)
    @example(SQUARE_PYRAMID)
    @example(REVERSED_PIVOTS)
    @given(walk_polytopes())
    def test_matches_the_fraction_oracles(self, poly):
        n, incidence = poly.dim, fraction_incidence(poly)
        verts = tuple(incidence)
        # one common positive denominator, and the order of the Fractions
        assert all(type(c) is int for v in poly.vertices for c in v)
        assert len({v[-1] for v in poly.vertices}) <= 1
        assert all(v[-1] > 0 for v in poly.vertices)
        assert as_fractions(poly.vertices) == verts
        assert poly.incidence == tuple(incidence.values())
        assert poly.is_full_dimensional == (
            fraction_affine_rank(list(verts), n) == n)
        # the facets that validate_delzant calls redundant
        assert [r for r in range(len(poly.facets)) if _affine_rank(
            [v for v, a in zip(poly.vertices, poly.incidence) if r in a],
            n) < n - 1] == [r for r in range(len(poly.facets))
                            if fraction_affine_rank(
                                [v for v, a in incidence.items() if r in a],
                                n) < n - 1]
        if not verts:
            with pytest.raises(PolytopeError, match="barycenter"):
                poly.barycenter
            with pytest.raises(PolytopeError, match="bounding box"):
                poly.bounding_box()
            return
        coords = list(zip(*verts))
        assert poly.barycenter == tuple(sum(c) / len(verts) for c in coords)
        assert poly.bounding_box() == (tuple(map(min, coords)),
                                       tuple(map(max, coords)))
        assert poly.lattice_box() == [(math.ceil(min(c)), math.floor(max(c)))
                                      for c in coords]
        if poly.is_bounded and poly.is_full_dimensional:
            region = triangulate(poly)
            fan = fraction_face_fan(poly, verts, n)
            assert [as_fractions(s) for s in region.simplices] == fan
            assert region.volumes == [fraction_simplex_volume(s) for s in fan]
            # X / D rounds as float(Fraction) does, bit for bit
            assert region.float_simplices.tolist() == [
                [[float(c) for c in v] for v in s] for s in fan]
