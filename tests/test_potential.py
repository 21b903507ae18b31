import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from exact_oracles import (cauchy_binet_terms, guillemin_gradient,
                           guillemin_value)
from toricq import library
from toricq.polytope import (DelzantPolytope, FrameChange, HPolytope,
                            apply_frame_change)
from toricq.potential import (
    DomainError,
    abreu_scalar_curvature,
    finite,
    guillemin_potential,
    regularity_delta,
    SymplecticPotential,
)
from toricq.reduction import c3_reduction


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
        assert guillemin_value(pot, np.array([0.0])) == pytest.approx(
            expected, abs=1e-15)
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
        assert guillemin_value(sq, x) == pytest.approx(
            guillemin_value(seg, x[:1]) + guillemin_value(seg, x[1:]),
            rel=1e-14)
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
                if not np.all(pot.facet_values(x) > 0.05):
                    continue
                count += 1
                assert np.allclose(guillemin_gradient(pot, x),
                                   fd_grad(lambda z: guillemin_value(pot, z),
                                           x), atol=1e-7)
                for j in range(poly.dim):
                    col = fd_grad(lambda z: guillemin_gradient(pot, z)[j], x)
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
                if not np.all(pot.facet_values(x) > 1e-3):
                    continue
                taken += 1
                np.linalg.cholesky(pot.hess(x))  # raises if not SPD


class TestFacetLayout:
    """Facet values come facet-major from one matmul.  Its bits are those
    of the node-major product for any normals; a batch gives each point's
    bits for the integer normals of the shipped shapes (entries in [-2, 2]
    up to 3-D, the box's +-e_i in 4-D).  A 4-D normal with several nonzero
    entries may round differently at a point, in either layout."""

    @staticmethod
    def potential(rng, n, R, exact):
        if not exact:
            A = rng.uniform(-3, 3, (R, n))
        elif n < 4:
            A = rng.integers(-2, 3, (R, n))
            A[~A.any(axis=1), 0] = 1
        else:
            signs = rng.choice([-1.0, 1.0], (R, 1))
            A = signs * np.eye(n)[rng.integers(n, size=R)]
        return SymplecticPotential(A, rng.integers(1, 8, R) / 2)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("exact", [False, True])
    def test_batch_equals_points_and_node_major(self, n, exact):
        rng = np.random.default_rng(30 + n)
        for R in range(1, 11):
            pot = self.potential(rng, n, R, exact)
            for N in sorted({1, 7, R, 2048, 8704}):
                x = rng.uniform(-1, 1, (N, n))
                l = pot.facet_values(x)
                assert l.shape == (R, N) and l.flags.c_contiguous
                assert np.array_equal(l, (x @ pot.A.T + pot.b).T)
                if exact:
                    points = np.array([pot.facet_values(y) for y in x])
                    assert np.array_equal(l, points.T)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_derivatives_on_a_batch_of_R_points(self, n):
        # N = R, so subscripts that mix the node and facet axes still
        # broadcast, and only the values tell
        rng = np.random.default_rng(40 + n)
        for R in range(1, 11):
            pot = self.potential(rng, n, R, exact=True)
            x = rng.uniform(-0.05, 0.05, (R, n))
            assert np.array_equal(pot.hess(x),
                                  np.array([pot.hess(y) for y in x]))
            assert np.array_equal(pot.third(x),
                                  np.array([pot.third(y) for y in x]))


class TestLegendre:
    """The Legendre map y = grad g(x)."""

    def test_symmetric_midpoint(self):
        for poly in (library.corrected_segment(), library.segment(0, 1)):
            pot = guillemin_potential(poly)
            y = guillemin_gradient(pot, np.array([0.5]))[0]
            assert y == pytest.approx(0.0)

    def test_closed_form_value(self):
        # [-1/2,3/2] at x=0: y = 1/2 log(l1/l2) = 1/2 log(1/3)
        pot = guillemin_potential(library.corrected_segment())
        y = guillemin_gradient(pot, np.array([0.0]))[0]
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
        k = lambda x: float(np.dot(x, guillemin_gradient(pot, x))
                            - guillemin_value(pot, x))
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
        # no point is too close to the boundary: S is 2 on [0, 1] at 1e-12
        pot = guillemin_potential(library.segment(0, 1))
        assert abreu_scalar_curvature(pot, np.array([1e-12])) == pytest.approx(
            2.0, rel=1e-14, abs=0.0)

    def test_non_finite_rejected(self):
        # the facet value 2e308 overflows, and S comes out nan
        pot = self.c3_reduced_potential(1e308)
        with np.errstate(all="ignore"), pytest.raises(DomainError,
                                                      match="not finite"):
            abreu_scalar_curvature(pot, np.array([1.0, 1.0]))


def unit_simplex(n):
    """The unit n-simplex x >= 0, sum x <= 1, where S = n(n+1)."""
    return SymplecticPotential(np.vstack([np.eye(n), -np.ones(n)]),
                               [0.0] * n + [1.0])


def mp_curvature(pot, x):
    """Abreu's closed form S = sum_r h_rr^2 / (2 l_r^3) - 1/8 sum_rs
    (h_rr h_ss h_rs + h_rs^3) / (l_r^2 l_s^2), h_rs = a_r . G^-1 a_s, at 60
    digits from the float facet data and point."""
    with mpmath.workdps(60):
        A = mpmath.matrix(pot.A.tolist())
        l = A * mpmath.matrix(x.tolist()) + mpmath.matrix(pot.b.tolist())
        R = len(l)
        G = A.T * mpmath.diag([1 / (2 * v) for v in l]) * A
        h = A * G ** -1 * A.T
        S = sum(h[r, r] ** 2 / (2 * l[r] ** 3) for r in range(R)) - sum(
            (h[r, r] * h[s, s] * h[r, s] + h[r, s] ** 3) / (l[r] * l[s]) ** 2
            for r in range(R) for s in range(R)) / 8
        return float(S)


# the distances d to the nearest facet of the accuracy sweep
SWEEP = [10.0 ** -k for k in range(1, 15)]


def sweep_bound(d):
    """The error of S relative to max(1, |S|) allowed at distance d."""
    return max(1e-12, 1e-14 / math.sqrt(d))


def towards_facet(y, normal, d):
    """The point at distance d inside the facet point y of the given
    inward normal."""
    normal = np.asarray(normal, dtype=float)
    return np.asarray(y, dtype=float) + d * normal / np.linalg.norm(normal)


class TestCurvatureNearFacets:
    @pytest.mark.parametrize("d", SWEEP)
    def test_triangle_line(self, d):
        # (0.3, 0.7 - d) nears the slanted facet of the unit triangle, S = 6
        S = abreu_scalar_curvature(unit_simplex(2), np.array([0.3, 0.7 - d]))
        assert abs(S - 6.0) <= 1e-14 * 6.0

    @pytest.mark.parametrize("d", SWEEP)
    @pytest.mark.parametrize("y", [[0.2, 0.3, 0.5], [0.1, 0.2, 0.3, 0.4]],
                             ids=["3-simplex", "4-simplex"])
    def test_simplex_near_its_slanted_facet(self, y, d):
        n = len(y)
        x = towards_facet(y, -np.ones(n), d)
        S = abreu_scalar_curvature(unit_simplex(n), x)
        assert abs(S - n * (n + 1)) <= sweep_bound(d) * n * (n + 1)

    @pytest.mark.parametrize("d", SWEEP)
    @pytest.mark.parametrize("alpha", [1, 2, 10**6, 10**66, 10**200],
                             ids=["1", "2", "1e6", "1e66", "1e200"])
    def test_weighted_reduction_near_an_axis(self, alpha, d):
        # S = 2 alpha / ((alpha + 1)(x1 + x2)) at (d, 1)
        pot = c3_reduction(alpha).potential
        S = abreu_scalar_curvature(pot, np.array([d, 1.0]))
        with mpmath.workdps(40):
            exact = 2 * alpha / ((alpha + 1) * (mpmath.mpf(d) + 1))
            assert abs(S - exact) <= sweep_bound(d) * max(1, abs(exact))

    @pytest.mark.parametrize("d", SWEEP)
    @pytest.mark.parametrize("y, normal", [([1.8, 1.2], [-1, -1]),
                                           ([0.0, 0.7], [1, 0]),
                                           ([0.9, 1.8], [-1, -2])],
                             ids=["x+y=3", "x=0", "x+2y=4.5"])
    def test_polygon_against_mpmath(self, y, normal, d):
        # x, y >= 0, x <= 2, y <= 2, x + y <= 3, x + 2y <= 4.5: S varies
        pot = SymplecticPotential(
            [[1, 0], [0, 1], [-1, 0], [0, -1], [-1, -1], [-1, -2]],
            [0.0, 0.0, 2.0, 2.0, 3.0, 4.5])
        x = towards_facet(y, normal, d)
        exact = mp_curvature(pot, x)
        S = abreu_scalar_curvature(pot, x)
        assert abs(S - exact) <= sweep_bound(d) * max(1, abs(exact))

    @pytest.mark.parametrize("d", SWEEP)
    def test_cut_box_against_mpmath(self, d):
        # [-1, 1]^3 cut by two slanted facets, near its facet z = 1: with
        # unsorted columns the QR loses digits like 1e-16 / sqrt(d) here
        pot = SymplecticPotential(
            np.vstack([np.eye(3), -np.eye(3), [[-1, 2, 2], [2, -1, -1]]]),
            [1.0] * 6 + [0.5, 1.0])
        x = towards_facet([0.4, -0.9, 1.0], [0, 0, -1], d)
        exact = mp_curvature(pot, x)
        S = abreu_scalar_curvature(pot, x)
        assert abs(S - exact) <= 1e-13 * max(1, abs(exact))


# near a simple vertex, at two distances from its facets
CORNERS = [(1e-6, 1e-6), (1e-13, 1e-13), (1e-13, 1e-4), (1e-9, 1e-14)]


class TestCurvatureNearVertices:
    @pytest.mark.parametrize("s, t", CORNERS)
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_simplex_corner(self, n, s, t):
        x = np.array([s, t] * n)[:n]
        S = abreu_scalar_curvature(unit_simplex(n), x)
        assert abs(S - n * (n + 1)) <= 1e-13 * n * (n + 1)

    @pytest.mark.parametrize("s, t", CORNERS)
    def test_polygon_corner_against_mpmath(self, s, t):
        # the vertex (3/2, 3/2) of x + y <= 3 and x + 2y <= 9/2, whose facet
        # values at (3/2, 3/2) + s (1, -1) + t (-2, 1) are t and s
        pot = SymplecticPotential(
            [[1, 0], [0, 1], [-1, 0], [0, -1], [-1, -1], [-1, -2]],
            [0.0, 0.0, 2.0, 2.0, 3.0, 4.5])
        x = np.array([1.5 + s - 2 * t, 1.5 - s + t])
        exact = mp_curvature(pot, x)
        S = abreu_scalar_curvature(pot, x)
        assert abs(S - exact) <= 1e-13 * max(1, abs(exact))


@st.composite
def framed_points(draw):
    """A box [-1, 1]^n, n = 2..4, cut by up to two facets with integer
    normals in [-2, 2] that keep the origin inside; an SL(n, Z) matrix, the
    identity under up to three row shears by -2..2; and an interior point
    whose facet values keep 1/2 or 1e-3 of the offsets."""
    n = draw(st.integers(2, 4))
    facets = [(tuple(sign * int(i == j) for j in range(n)), 1)
              for i in range(n) for sign in (1, -1)]
    facets += [(tuple(normal), draw(st.sampled_from(["1/2", 1, "5/2"])))
               for normal in draw(st.lists(st.lists(
                   st.integers(-2, 2), min_size=n, max_size=n).filter(any),
                   max_size=2))]
    poly = DelzantPolytope.from_data(n, facets)
    B = np.eye(n, dtype=int)
    for i, j, k in draw(st.lists(st.tuples(
            st.integers(0, n - 1), st.integers(0, n - 1),
            st.sampled_from([-2, -1, 1, 2])).filter(lambda t: t[0] != t[1]),
            max_size=3)):
        B[i] += k * B[j]
    pot = guillemin_potential(poly)
    u = np.array(draw(st.lists(st.floats(-1, 1), min_size=n, max_size=n)))
    reach = np.max(-(pot.A @ u) / pot.b)
    keep = draw(st.sampled_from([0.5, 1e-3]))
    x = u if reach <= 1 - keep else u * ((1 - keep) / reach)
    return poly, B, x


@settings(max_examples=100, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(framed_points())
def test_curvature_is_frame_invariant(case):
    # in the frame x~ = B x the facet values, and so S, are unchanged
    poly, B, x = case
    moved = apply_frame_change(poly, FrameChange(B.tolist()))
    S = abreu_scalar_curvature(guillemin_potential(poly), x)
    S_moved = abreu_scalar_curvature(guillemin_potential(moved), B @ x)
    assert S_moved == pytest.approx(S, rel=1e-10, abs=1e-10)


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
        terms = TRIANGLE.det_terms([s, 0.0])
        got = terms.det(l[:, None], terms.coeffs[:, None])[0]
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
                l[:, None])[0]
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
@given(shifted_potentials(), st.booleans())
def test_cauchy_binet_terms(case, unshifted):
    pot, d, x = case
    terms = pot.det_terms(None if unshifted else d)
    d = [0.0] * pot.dim if unshifted else d
    # c_T = 2^-|T| sum_C det(A[T, C])^2 prod_{j not in C} d_j over every
    # column set C, exactly, and correctly rounded, in the same order; the
    # zero ones are dropped, and det_terms skips the C whose product holds
    # a zero shift
    A = [[int(v) for v in row] for row in pot.A.tolist()]
    assert (list(zip(terms.subsets, terms.coeffs.tolist()))
            == cauchy_binet_terms(A, d))
    # and they sum to the determinant of the shifted Hessian
    lu = np.linalg.det(pot.hess(x) + np.diag(d))
    det = terms.det(pot.facet_values(x)[:, None], terms.coeffs[:, None])[0]
    assert det == pytest.approx(lu, rel=1e-10, abs=0.0)


class TestFiniteRule:
    """`finite` runs a block under numpy's raising rule and names each
    float failure with its message, formatted only on failure."""

    @pytest.mark.parametrize("fail", [
        lambda: np.float64(1e308) * 10,
        lambda: np.ones(1) / 0,
        lambda: np.sqrt(-np.ones(1)),
        lambda: math.exp(1000),
        lambda: np.linalg.cholesky(-np.eye(2))],
        ids=["overflow", "divide", "invalid", "float-overflow", "linalg"])
    def test_float_failure_is_named(self, fail):
        with pytest.raises(DomainError, match=r"^at \[1\. 2\.\]: no$"):
            with finite("at %s: no", np.array([1.0, 2.0])):
                fail()

    def test_underflow_is_quiet(self):
        with finite("unused"):
            assert np.float64(1e-300) * 1e-300 == 0.0

    def test_exact_division_by_zero_stays_a_crash(self):
        with pytest.raises(ZeroDivisionError):
            with finite("unused"):
                Fraction(1) / 0

    @pytest.mark.parametrize("x", [[1e-320, 0.5], [0.5, 1e-320]])
    def test_curvature_at_a_subnormal_facet_value(self, x):
        # 1/l_r = w_r^2 overflows at l_r = 1e-320, but the r = s terms are
        # not in the double sum, so S is the triangle's 6/2 = 3
        triangle = SymplecticPotential([[1, 0], [0, 1], [-1, -1]], [0, 0, 2])
        assert abreu_scalar_curvature(triangle, np.array(x)) == pytest.approx(
            3.0, rel=1e-14, abs=0.0)
