import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from exact_oracles import cofactor_det
from toricq import library
from toricq.polytope import HPolytope
from toricq.potential import (
    DomainError,
    abreu_scalar_curvature,
    facet_rows,
    guillemin_potential,
    regularity_delta,
    SymplecticPotential,
)


def fd_grad(fun, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for j in range(len(x)):
        e = np.zeros_like(x)
        e[j] = h
        out[j] = (fun(x + e) - fun(x - e)) / (2 * h)
    return out


def shipped_polytopes():
    return [library.corrected_segment(), library.corrected_square(),
            library.simplex(1), library.simplex(2)]


class TestClosedForms:
    def test_segment_value(self):
        # g_P(0) on [-1/2, 3/2] = 1/2 (1/2 log 1/2 + 3/2 log 3/2)
        pot = guillemin_potential(library.corrected_segment())
        expected = 0.5 * (0.5 * math.log(0.5) + 1.5 * math.log(1.5))
        assert pot.value(np.array([0.0])) == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(0.130812, abs=1e-6)

    def test_segment_hessian(self):
        # [0, lam]: G = lam / (2 x (lam - x))
        lam = 3.0
        pot = guillemin_potential(library.segment(0, 3))
        for x in (0.3, 1.5, 2.9):
            G = pot.hess(np.array([x]))[0, 0]
            assert G == pytest.approx(lam / (2 * x * (lam - x)), rel=1e-14)

    def test_product_additivity(self):
        seg = guillemin_potential(library.corrected_segment())
        sq = guillemin_potential(library.corrected_square())
        x = np.array([0.3, 0.7])
        assert sq.value(x) == pytest.approx(
            seg.value(x[:1]) + seg.value(x[1:]), rel=1e-14)
        G = sq.hess(x)
        assert G[0, 1] == 0.0
        assert G[0, 0] == pytest.approx(seg.hess(x[:1])[0, 0], rel=1e-14)

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(0)
        for poly in shipped_polytopes():
            pot = guillemin_potential(poly)
            lo, hi = poly.bounding_box()
            lo = np.array([float(c) for c in lo])
            hi = np.array([float(c) for c in hi])
            count = 0
            while count < 50:
                x = lo + rng.random(poly.dim) * (hi - lo)
                if not pot.is_interior(x, margin=0.05):
                    continue
                count += 1
                assert np.allclose(pot.grad(x), fd_grad(pot.value, x),
                                   atol=1e-7)
                for j in range(poly.dim):
                    col = fd_grad(lambda z: pot.grad(z)[j], x)
                    assert np.allclose(pot.hess(x)[j], col, atol=1e-6)
                for j in range(poly.dim):
                    for k in range(poly.dim):
                        t = fd_grad(lambda z: pot.hess(z)[j, k], x, h=1e-5)
                        assert np.allclose(pot.third(x)[j, k], t, atol=1e-4)

    def test_hessian_positive_definite(self):
        rng = np.random.default_rng(1)
        for poly in shipped_polytopes():
            pot = guillemin_potential(poly)
            lo, hi = poly.bounding_box()
            lo = np.array([float(c) for c in lo])
            hi = np.array([float(c) for c in hi])
            taken = 0
            while taken < 20:
                x = lo + rng.random(poly.dim) * (hi - lo)
                if not pot.is_interior(x, margin=1e-3):
                    continue
                taken += 1
                np.linalg.cholesky(pot.hess(x))  # raises if not SPD


class TestLegendre:
    """The Legendre map y = grad g(x)."""

    def test_symmetric_midpoint(self):
        pot = guillemin_potential(library.corrected_segment())
        assert pot.grad(np.array([0.5]))[0] == pytest.approx(0.0)
        pot01 = guillemin_potential(library.segment(0, 1))
        assert pot01.grad(np.array([0.5]))[0] == pytest.approx(0.0)

    def test_closed_form_value(self):
        # [-1/2,3/2] at x=0: y = 1/2 log(l1/l2) = 1/2 log(1/3)
        pot = guillemin_potential(library.corrected_segment())
        y = pot.grad(np.array([0.0]))[0]
        assert y == pytest.approx(0.5 * math.log(0.5 / 1.5), rel=1e-14)
        assert y == pytest.approx(-0.549306, abs=1e-6)


class TestDeltaAndJ:
    def test_delta_constant_segment(self):
        for lam in (1, 3):
            pot = guillemin_potential(library.segment(0, lam))
            for x in (0.1, 0.4 * lam, 0.9 * lam):
                assert regularity_delta(pot, np.array([x])) == pytest.approx(
                    2.0 / lam, rel=1e-12)

    def test_delta_square(self):
        pot = guillemin_potential(library.square(1))
        assert regularity_delta(pot, np.array([0.3, 0.8])) == pytest.approx(
            4.0, rel=1e-12)

    def test_delta_continuous_to_boundary(self):
        pot = guillemin_potential(library.corrected_square())
        d0 = regularity_delta(pot, np.array([0.5, 0.5]))
        for eps in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
            d = regularity_delta(pot, np.array([-0.5 + eps, 0.5]))
            assert 0.9 * d0 <= d <= 1.1 * d0


class TestKahlerConvexity:
    def test_midpoint_inequality(self):
        pot = guillemin_potential(library.corrected_square())
        rng = np.random.default_rng(4)
        # the Kahler potential k(x) = x . grad g(x) - g(x)
        k = lambda x: float(np.dot(x, pot.grad(x)) - pot.value(x))
        for _ in range(20):
            a = np.array([-0.3, -0.3]) + 1.6 * rng.random(2)
            b = np.array([-0.3, -0.3]) + 1.6 * rng.random(2)
            mid = 0.5 * (a + b)
            assert k(mid) <= 0.5 * (k(a) + k(b)) + 1e-12


class TestAbreuCurvature:
    def c3_reduced_potential(self, alpha):
        normals = [(1.0, 0.0), (0.0, 1.0), (alpha, alpha)]
        return SymplecticPotential(normals, [0.0, 0.0, 0.0],
                                   barycenter=[1.0, 1.0])

    def test_weighted_reduction_alpha2(self):
        pot = self.c3_reduced_potential(2.0)
        S = abreu_scalar_curvature(pot, np.array([1.0, 1.0]))
        assert S == pytest.approx(2.0 / 3.0, abs=1e-6)

    def test_weighted_reduction_alpha1(self):
        pot = self.c3_reduced_potential(1.0)
        S = abreu_scalar_curvature(pot, np.array([1.0, 1.0]))
        assert S == pytest.approx(0.5, abs=1e-6)

    def test_constant_on_segment(self):
        pot = guillemin_potential(library.segment(0, 1))
        vals = [abreu_scalar_curvature(pot, np.array([x]))
                for x in (0.2, 0.35, 0.5, 0.65, 0.8)]
        assert max(vals) - min(vals) <= 1e-5
        # the calibrated convention gives 2/lam on [0, lam]
        assert vals[2] == pytest.approx(2.0, abs=1e-6)

    @pytest.mark.parametrize("n, lam, S", [(3, 1, 12.0), (3, 3, 4.0),
                                           (4, 5, 4.0)])
    def test_closed_form_on_projective_space(self, n, lam, S):
        # the simplex of size lam is CP^n with constant S = n(n+1)/lam
        facets = [(tuple(int(i == j) for j in range(n)), 0) for i in range(n)]
        facets.append((tuple(-1 for _ in range(n)), lam))
        poly = HPolytope.from_data(n, facets)
        pot = guillemin_potential(poly)
        barycenter = np.array([float(c) for c in poly.barycenter])
        for x in (barycenter, lam * np.linspace(0.15, 0.3, n)):
            assert abreu_scalar_curvature(pot, x) == pytest.approx(
                S, rel=1e-13, abs=0.0)

    def test_closed_form_on_box(self):
        # [0,2] x [0,5] is a product of round spheres: S = 2/2 + 2/5
        pot = guillemin_potential(HPolytope.from_data(
            2, [((1, 0), 0), ((-1, 0), 2), ((0, 1), 0), ((0, -1), 5)]))
        for x in ([1.0, 2.5], [0.5, 1.0], [1.6, 4.0]):
            assert abreu_scalar_curvature(pot, np.array(x)) == pytest.approx(
                1.4, rel=1e-13, abs=0.0)

    def test_boundary_rejected(self):
        pot = guillemin_potential(library.segment(0, 1))
        with pytest.raises(DomainError):
            abreu_scalar_curvature(pot, np.array([1e-12]))

    def test_non_finite_rejected(self):
        # the facet value 2e308 overflows, and S comes out nan
        pot = self.c3_reduced_potential(1e308)
        with np.errstate(all="ignore"), pytest.raises(DomainError,
                                                      match="not finite"):
            abreu_scalar_curvature(pot, np.array([1.0, 1.0]))


def mp_det_shifted(pot, l, shift):
    """det(1/2 A^T diag(1/l) A + diag(shift)) at 40 digits, from the same
    float facet values l."""
    with mpmath.workdps(40):
        n = pot.dim
        G = mpmath.diag([mpmath.mpf(v) for v in shift])
        for a, lr in zip(pot.A.tolist(), l.tolist()):
            for j, k in itertools.product(range(n), repeat=2):
                G[j, k] += mpmath.mpf(a[j]) * a[k] / (2 * mpmath.mpf(lr))
        return mpmath.det(G)


# the corrected triangle x, y >= -1/2, x + y <= 5/2
TRIANGLE = SymplecticPotential([[1, 0], [0, 1], [-1, -1]], [0.5, 0.5, 2.5],
                               barycenter=[0.5, 0.5])


class TestCauchyBinetAccuracy:
    # near the slanted facet the LU determinant of the Hessian cancels (it
    # is off by up to 5.6e-6 here); the sum of positive terms does not
    @pytest.mark.parametrize("d", [1e-3, 1e-6, 1e-9, 1e-12])
    @pytest.mark.parametrize("s", [0.0, 80.0, 1e6, 1e10])
    def test_det_near_slanted_facet(self, d, s):
        l = TRIANGLE.facet_values(np.array([0.3, 2.2 - d]))
        ref = mp_det_shifted(TRIANGLE, l, [s, 0.0])
        got = TRIANGLE.det_terms([s, 0.0]).det(facet_rows(l))[0]
        assert abs(got - ref) <= 1e-15 * ref

    @pytest.mark.parametrize("d", [1e-3, 1e-6, 1e-9, 1e-12])
    @pytest.mark.parametrize("s", [0.0, 80.0, 1e6, 1e10])
    def test_regularity_delta_near_slanted_facet(self, d, s):
        # delta is 1 / (det G_s prod_r l_r) at s = 0; the polynomial it
        # inverts is read from the same terms at every s
        x = np.array([0.3, 2.2 - d])
        l = TRIANGLE.facet_values(x)
        with mpmath.workdps(40):
            ref = (mp_det_shifted(TRIANGLE, l, [s, 0.0])
                   * mpmath.fprod([mpmath.mpf(v) for v in l.tolist()]))
            got = TRIANGLE.det_terms([s, 0.0]).det_times_facet_product(
                facet_rows(l))[0]
            assert abs(got - ref) <= 1e-15 * ref
            if s == 0.0:
                delta = regularity_delta(TRIANGLE, x)
                assert abs(delta - 1 / ref) <= 1e-15 / ref


@st.composite
def shifted_potentials(draw):
    """A box [-1, 1]^n, n = 1..4, cut by up to two facets with integer
    normals in [-2, 2] that keep the origin inside; p = 0..n, s in
    {0, 1, 1e3}, with or without a positive diagonal added to the shift;
    and an interior point."""
    n = draw(st.integers(1, 4))
    normals = [[sign * int(i == j) for j in range(n)]
               for i in range(n) for sign in (1, -1)]
    offsets = [1.0] * (2 * n)
    for normal in draw(st.lists(st.lists(st.integers(-2, 2), min_size=n,
                                         max_size=n).filter(any),
                                max_size=2)):
        normals.append(normal)
        offsets.append(draw(st.sampled_from([0.5, 1.0, 2.5])))
    diagonal = draw(st.none() | st.lists(
        st.sampled_from([0.1, 0.5, 1.0, 3.0]), min_size=n, max_size=n))
    pot = SymplecticPotential(normals, offsets)
    p = draw(st.integers(0, n))
    s = draw(st.sampled_from([0.0, 1.0, 1e3]))
    shift = np.array([s] * p + [0.0] * (n - p))
    if diagonal is not None:
        shift = shift + diagonal
    # scale a point of the box so that every facet keeps half its offset
    u = np.array(draw(st.lists(st.floats(-1, 1), min_size=n, max_size=n)))
    reach = np.max(-(pot.A @ u) / pot.b)
    x = u if reach <= 0.5 else u * (0.5 / reach)
    return pot, shift.tolist(), x


@settings(max_examples=60, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(shifted_potentials())
def test_cauchy_binet_terms(case):
    pot, d, x = case
    n = pot.dim
    terms = pot.det_terms(d)
    # c_T = 2^-|T| sum_C det(A[T, C])^2 prod_{j not in C} d_j, exactly, and
    # correctly rounded; the zero ones are dropped
    A = [[int(v) for v in row] for row in pot.A.tolist()]
    exact = {}
    for k in range(n + 1):
        for T in itertools.combinations(range(len(A)), k):
            c = sum(cofactor_det([[A[t][j] for j in C] for t in T]) ** 2
                    * math.prod(Fraction(d[j]) for j in range(n) if j not in C)
                    for C in itertools.combinations(range(n), k))
            if c:
                exact[T] = float(Fraction(c, 2 ** k))
    assert dict(zip(terms.subsets, terms.coeffs.tolist())) == exact
    # and they sum to the determinant of the shifted Hessian
    lu = np.linalg.det(pot.hess(x) + np.diag(d))
    det = terms.det(facet_rows(pot.facet_values(x)))[0]
    assert det == pytest.approx(lu, rel=1e-10, abs=0.0)
