"""Face-fan triangulation in every dimension, and the slice integrals that
depend on it."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate as sci

from exact_oracles import cofactor_det, facet_value, vertex_incidence
from toricq.polytope import (DelzantPolytope, _det, _fraction_free,
                             axis_slice, validate_delzant)
from toricq.quadrature import integrate, triangulate
from toricq.potential import guillemin_potential
from toricq.quantization import limit_constant
from toricq.reduction import CLASS_WORSE, classify_polytope

H = Fraction(1, 2)
FIVE_HALVES = Fraction(5, 2)


def cut_cube():
    """[-1/2, 5/2]^3 cut by x1 + x3 <= 7/2: the corrected [0, 2]^3 cut by
    x1 + x3 <= 3.  At x1 = 1 the cut coincides with x3 <= 5/2."""
    facets = [(tuple(int(j == i) for j in range(3)), H) for i in range(3)]
    facets += [(tuple(-int(j == i) for j in range(3)), FIVE_HALVES)
               for i in range(3)]
    facets.append(((-1, 0, -1), Fraction(7, 2)))
    return DelzantPolytope.from_data(3, facets)


def unit_simplex(n):
    facets = [(tuple(int(j == i) for j in range(n)), 0) for i in range(n)]
    facets.append(((-1,) * n, 1))
    return DelzantPolytope.from_data(n, facets)


def slice_integrand_dblquad(poly, m):
    """c_m for p = 1, n = 3 by scipy's dblquad, independent of toricq's
    quadrature: the stable density times sqrt(det D) over the slice."""
    A = np.array([[float(c) for c in f.normal] for f in poly.facets])
    b = np.array([float(f.offset) for f in poly.facets])
    lm = A @ np.asarray(m, dtype=float) + b

    def f(x3, x2):
        l = A @ np.array([float(m[0]), x2, x3]) + b
        density = math.exp(np.sum(lm * np.log(l) + lm - l))
        D = 0.5 * (A[:, 1:].T / l) @ A[:, 1:]
        return density * math.sqrt(np.linalg.det(D))

    # the slice x1 = 1 is the square [-1/2, 5/2]^2
    value, _ = sci.dblquad(f, -0.5, 2.5, -0.5, 2.5,
                           epsabs=1e-10, epsrel=1e-10)
    return value


class TestCutCube:
    def test_slice_with_repeated_facet_has_exact_area(self):
        sl = axis_slice(cut_cube(), 1, (1,))
        assert sum(triangulate(sl).volumes) == 9

    def test_volume(self):
        # 27 minus the cut prism of cross-section 9/8 and length 3
        assert sum(triangulate(cut_cube()).volumes) == Fraction(189, 8)

    def test_limit_constant_matches_dblquad(self):
        poly = cut_cube()
        reference = slice_integrand_dblquad(poly, (1, 1, 1))
        assert reference == pytest.approx(193.646, rel=1e-5)
        value = limit_constant(poly, guillemin_potential(poly), 1, (1, 1, 1),
                               tol=1e-5).value
        assert value == pytest.approx(reference, rel=1e-6)


class TestFourSimplex:
    def test_exact_volume(self):
        region = triangulate(unit_simplex(4))
        assert sum(region.volumes) == Fraction(1, 24)
        # every simplex of the fan is 4-dimensional with positive volume
        assert all(len(s) == 5 for s in region.simplices)
        assert all(v > 0 for v in region.volumes)

    def test_integrate_coordinate(self):
        res = integrate(lambda x: x[:, 0], triangulate(unit_simplex(4)),
                        1e-13)
        assert res.converged
        assert res.value == pytest.approx(1.0 / 120.0, abs=1e-13)


class TestEliminate:
    def test_inverse_from_augmented_rows(self):
        # the rows of [A | I] come back as d [I | A^-1], d = sign * det A
        A = [[2, 1, 0], [1, 3, 1], [0, 1, 4]]
        rows = [row + [int(i == j) for j in range(3)]
                for i, row in enumerate(A)]
        M, pivots, sign = _fraction_free(rows, 3)
        assert pivots == [0, 1, 2]
        d = M[-1][2]
        assert sign * d == cofactor_det(A) == 18
        inv = [[Fraction(e, d) for e in row[3:]] for row in M]
        for i in range(3):
            for j in range(3):
                assert sum(A[i][k] * inv[k][j] for k in range(3)) == (i == j)

    def test_rank_deficient(self):
        _, pivots, _ = _fraction_free([[1, 2, 3], [2, 4, 6]], 3)
        assert pivots == [0]
        assert _det([[1, 2, 3], [2, 4, 6], [0, 1, 5]]) == 0


class TestDet:
    def test_integer_matrix(self):
        A = [[2, -1, 0, 3], [1, 3, 1, 0], [0, 1, 4, -2], [5, 0, 2, 1]]
        det = _det(A)
        assert type(det) is int
        assert det == round(np.linalg.det(np.array(A, dtype=float)))
        assert _det([]) == 1

    @settings(max_examples=200, derandomize=True, deadline=None,
              database=None)
    @example([])
    @example([[0, 1], [1, 0]])                    # one row swap: -1
    @example([[0, 1, 0], [0, 0, 1], [1, 0, 0]])   # two row swaps: +1
    @example([[0, 2, 1], [3, 1, 0], [0, 0, 0]])   # a zero row
    @example([[1, 2, 3], [2, 4, 6], [0, 1, 5]])   # dependent rows
    @example([[0, 0], [0, 3]])                    # a zero column
    @given(st.integers(0, 4).flatmap(lambda n: st.lists(
        st.lists(st.integers(-3, 3), min_size=n, max_size=n),
        min_size=n, max_size=n)))
    def test_matches_cofactor_oracle(self, A):
        det = _det(A)
        assert type(det) is int
        assert det == cofactor_det(A)


def square_pyramid():
    """Base [0, 2]^2 at height 0 and apex (1, 1, 1): four slanted facets
    meet at the apex, so it is not simple there."""
    return DelzantPolytope.from_data(3, [
        ((0, 0, 1), 0), ((1, 0, -1), 0), ((-1, 0, -1), 2),
        ((0, 1, -1), 0), ((0, -1, -1), 2)])


class TestSquarePyramid:
    APEX = (1, 1, 1)

    def test_incidence(self):
        poly = square_pyramid()
        assert len(poly.incidence) == len(poly.vertices)
        incidence = vertex_incidence(poly)
        assert tuple(incidence) == ((0, 0, 0), (0, 2, 0), (1, 1, 1),
                                    (2, 0, 0), (2, 2, 0))
        assert incidence[self.APEX] == (1, 2, 3, 4)
        for v, active in incidence.items():
            if v != self.APEX:
                assert len(active) == 3 and active[0] == 0
                assert all(facet_value(poly.facets[r], v) == 0
                           for r in active)

    def test_class_report_and_volume(self):
        poly = square_pyramid()
        assert classify_polytope(poly) == CLASS_WORSE
        report = validate_delzant(poly)
        assert report.verdict == "not delzant"
        assert report.violations == [(self.APEX, None)]
        assert sum(triangulate(poly).volumes) == Fraction(4, 3)
