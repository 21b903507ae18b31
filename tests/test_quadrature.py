import math
from fractions import Fraction

import numpy as np
import pytest

from toricq import library
from toricq.polytope import DelzantPolytope, PolytopeError
from toricq.quadrature import (
    IntegrationRegion,
    integrate,
    integrate_slice,
    triangulate,
)

# e^(2 g_P) on the unit segment is x^x (1-x)^(1-x); reference computed once
# with 30-digit adaptive quadrature (cross-checked by 10^6-interval Simpson)
SEGMENT_EXP_ORACLE = 0.617826964729011473


class TestTriangulate:
    def test_unit_square(self):
        region = triangulate(library.square(1))
        assert len(region.simplices) == 4
        assert region.exact_volume == 1
        for s in region.float_simplices:
            area = abs(np.linalg.det(s[1:] - s[0])) / 2
            assert area == pytest.approx(0.25)

    def test_segment(self):
        region = triangulate(library.segment(0, 3))
        assert len(region.simplices) == 1
        assert region.exact_volume == 3

    def test_simplex_fan(self):
        region = triangulate(library.simplex(1))
        assert len(region.simplices) == 3
        assert region.exact_volume == Fraction(1, 2)

    def test_volume_identity_all_shipped(self):
        for poly in library.shipped_polytopes():
            region = triangulate(poly)
            float_total = math.fsum(
                abs(np.linalg.det(s[1:] - s[0])) / math.factorial(poly.dim)
                for s in region.float_simplices)
            assert float_total == pytest.approx(float(region.exact_volume),
                                                abs=1e-12)

    def test_3d_simplex(self):
        poly = DelzantPolytope.from_data(
            3, [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0),
                ((-1, -1, -1), 1)])
        region = triangulate(poly)
        assert region.exact_volume == Fraction(1, 6)

    def test_empty_region_errors(self):
        from toricq.polytope import axis_slice

        sl = axis_slice(library.simplex(2), 1, (3,))
        with pytest.raises(PolytopeError):
            triangulate(sl)


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

    def test_budget_exhaustion_flagged(self):
        region = triangulate(library.square(1))
        res = integrate(lambda x: np.exp(-200 * x[:, 0]), region, tol=1e-15,
                        budget=8)
        assert not res.converged

    def test_refinement_monotone(self):
        region = triangulate(library.square(1))
        f = lambda x: np.exp(-30 * (x[:, 0] - 0.2) ** 2)
        errs = [integrate(f, region, tol=0.0, budget=b).error_estimate
                for b in (16, 32, 64, 128)]
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
        (library.simplex(2), 1e-6),
        (DelzantPolytope.from_data(
            3, [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0),
                ((-1, 0, 0), 1), ((0, -1, 0), 1), ((0, 0, -1), 1)]), 1e-4),
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
        # two calls for the roots, then one per split
        assert len(calls) == r1.cells_used - len(region.simplices) + 2


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
