import math

import numpy as np
import pytest

from toricq import library
from toricq.polytope import HPolytope
from toricq.potential import (
    DomainError,
    QuadraticCorrection,
    abreu_scalar_curvature,
    complex_structure,
    guillemin_potential,
    kahler_potential_value,
    legendre_forward,
    legendre_inverse,
    parse_correction,
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
        for poly in library.shipped_polytopes():
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
        for poly in library.shipped_polytopes():
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
    def test_symmetric_midpoint(self):
        pot = guillemin_potential(library.corrected_segment())
        assert legendre_forward(pot, np.array([0.5]))[0] == pytest.approx(0.0)
        pot01 = guillemin_potential(library.segment(0, 1))
        assert legendre_forward(pot01, np.array([0.5]))[0] == pytest.approx(0.0)

    def test_closed_form_value(self):
        # [-1/2,3/2] at x=0: y = 1/2 log(l1/l2) = 1/2 log(1/3)
        pot = guillemin_potential(library.corrected_segment())
        y = legendre_forward(pot, np.array([0.0]))[0]
        assert y == pytest.approx(0.5 * math.log(0.5 / 1.5), rel=1e-14)
        assert y == pytest.approx(-0.549306, abs=1e-6)

    def test_inverse_closed_form(self):
        # [0,1]: y = 1/2 log(x/(1-x)); y = 1/2 log 3 -> x = 3/4
        pot = guillemin_potential(library.segment(0, 1))
        x = legendre_inverse(pot, np.array([0.5 * math.log(3.0)]))
        assert x[0] == pytest.approx(0.75, abs=1e-10)

    def test_zero_maps_to_center(self):
        pot = guillemin_potential(library.corrected_square())
        x = legendre_inverse(pot, np.zeros(2))
        assert np.allclose(x, [0.5, 0.5], atol=1e-10)

    def test_round_trip(self):
        pot = guillemin_potential(library.corrected_square())
        rng = np.random.default_rng(2)
        count = 0
        while count < 100:
            x = -0.5 + 2.0 * rng.random(2)
            if not pot.is_interior(x, margin=0.02):
                continue
            count += 1
            y = legendre_forward(pot, x)
            x2 = legendre_inverse(pot, y)
            assert np.linalg.norm(x - x2) <= 1e-9

    def test_domain_error(self):
        pot = guillemin_potential(library.segment(0, 1))
        with pytest.raises(DomainError):
            legendre_forward(pot, np.array([1.5]))


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

    def test_complex_structure_1d(self):
        pot = guillemin_potential(library.segment(0, 1))
        J = complex_structure(pot, np.array([0.5]))
        assert np.allclose(J, [[0.0, -0.5], [2.0, 0.0]])
        assert np.linalg.norm(J @ J + np.eye(2)) <= 1e-12

    def test_complex_structure_square(self):
        pot = guillemin_potential(library.corrected_square())
        rng = np.random.default_rng(3)
        for _ in range(10):
            x = np.array([0.0, 0.0]) + rng.random(2)
            J = complex_structure(pot, x)
            assert np.linalg.norm(J @ J + np.eye(4)) <= 1e-12


class TestKahlerConvexity:
    def test_midpoint_inequality(self):
        pot = guillemin_potential(library.corrected_square())
        rng = np.random.default_rng(4)
        k = lambda x: kahler_potential_value(pot, x)
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
        pot = guillemin_potential(HPolytope.from_data(n, facets))
        for x in (pot.barycenter, lam * np.linspace(0.15, 0.3, n)):
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


class TestCorrection:
    def test_parse(self):
        corr = parse_correction("quadratic:1,2", 2)
        assert isinstance(corr, QuadraticCorrection)
        assert parse_correction("none", 2) is None
        with pytest.raises(ValueError):
            parse_correction("cubic:1", 1)

    def test_quadratic_shifts_hessian(self):
        poly = library.segment(0, 1)
        base = guillemin_potential(poly)
        pot = guillemin_potential(poly, correction=QuadraticCorrection((3.0,)))
        x = np.array([0.25])
        assert pot.hess(x)[0, 0] == pytest.approx(base.hess(x)[0, 0] + 3.0)
        assert pot.grad(x)[0] == pytest.approx(base.grad(x)[0] + 0.75)

    def test_quadratic_on_a_batch(self):
        poly = library.corrected_square()
        base = guillemin_potential(poly)
        pot = guillemin_potential(
            poly, correction=QuadraticCorrection((3.0, 0.5)))
        x = np.array([[0.25, 0.5], [-0.3, 1.2], [1.0, 0.0], [0.7, -0.4]])
        G = pot.hess(x)
        assert G.shape == (4, 2, 2)
        for i in range(len(x)):
            assert np.allclose(G[i], base.hess(x[i]) + np.diag([3.0, 0.5]),
                               rtol=1e-15, atol=0.0)
        assert np.array_equal(pot.third(x), base.third(x))
