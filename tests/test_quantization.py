import math
from fractions import Fraction

import numpy as np
import pytest

from exact_oracles import guillemin_gradient, guillemin_value
from toricq import library
from toricq.polytope import DelzantPolytope, HPolytope
from toricq.potential import guillemin_potential
from toricq.quadrature import integrate_slice
from toricq.quantization import (
    hamiltonian_value,
    limit_constant,
    norm_from_tilde,
    norm_integrand,
    quantum_basis,
    richardson_extrapolate,
    stable_density,
    tilde_norm_squared,
    verify_norm_limit,
)

# rescaled-norm references for the shifted segment [-1/2, 3/2], m = 0,
# frozen from adaptive Gauss-Kronrod quadrature at tolerance 1e-13
SEG_TILDE = {1.0: 2.1055202811274891,
             10.0: 2.2809165731229255,
             40.0: 2.301625146611479}
SEG_CM = 1.299038105676658
SEG_LIMIT = 2.302485092879599


class TestBasis:
    def test_segment_basis(self):
        basis = quantum_basis(library.corrected_segment(), 1)
        assert [el.m for el in basis] == [(0,), (1,)]
        assert basis[0].hamiltonian_value == 0.0
        assert basis[1].hamiltonian_value == 0.5

    def test_square_basis(self):
        basis = quantum_basis(library.corrected_square(), 1)
        assert [el.m for el in basis] == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert [el.index for el in basis] == [0, 1, 2, 3]
        # p=1 energy ignores the second coordinate
        assert basis[1].hamiltonian_value == 0.0
        assert basis[2].hamiltonian_value == 0.5

    def test_energies_match_pointwise_h(self):
        # one batched H(m) call gives the bits of one call per point
        poly = library.simplex(7)
        for p in (1, 2):
            basis = quantum_basis(poly, p)
            assert len(basis) == 36
            for el in basis:
                assert type(el.hamiltonian_value) is float
                assert el.hamiltonian_value == hamiltonian_value(el.m, p)

    def test_empty_polytope_has_empty_basis(self):
        empty = DelzantPolytope.from_data(
            2, [((1, 0), 0), ((-1, 0), Fraction(-1, 2)), ((0, 1), 0),
                ((0, -1), 1)])
        assert quantum_basis(empty, 1) == []

    def test_p_validation(self):
        with pytest.raises(ValueError):
            quantum_basis(library.corrected_segment(), 2)


class TestStableDensity:
    def test_matches_unstable_form(self):
        # interior identity: density = e^{-2((x-m).grad g - g)}
        poly = library.corrected_square()
        pot = guillemin_potential(poly)
        rng = np.random.default_rng(5)
        for m in ((0, 0), (1, 0), (1, 1)):
            density = stable_density(pot, m)
            count = 0
            while count < 20:
                x = -0.5 + 2.0 * rng.random(2)
                if not np.all(pot.facet_values(x) > 0.05):
                    continue
                count += 1
                y = guillemin_gradient(pot, x)
                direct = math.exp(-2.0 * (float((x - np.asarray(m)) @ y)
                                          - guillemin_value(pot, x)))
                w = pot.facet_values(x[None, :])
                assert density(w)[0] == pytest.approx(direct, rel=1e-12)

    def test_bounded_at_boundary(self):
        pot = guillemin_potential(library.corrected_segment())
        density = stable_density(pot, (0,))
        x = np.array([[-0.5 + 1e-12], [1.5 - 1e-12]])
        vals = density(pot.facet_values(x))
        assert np.all(np.isfinite(vals))

    def test_rejects_shallow_point(self):
        pot = guillemin_potential(library.segment(0, 1))
        with pytest.raises(ValueError):
            stable_density(pot, (0,))


def corrected_box3():
    h, t = Fraction(1, 2), Fraction(3, 2)
    return HPolytope.from_data(3, [((1, 0, 0), h), ((0, 1, 0), h),
                                   ((0, 0, 1), h), ((-1, 0, 0), t),
                                   ((0, -1, 0), t), ((0, 0, -1), t)])


def corrected_box4():
    h, t = Fraction(1, 2), Fraction(3, 2)
    eye = [tuple(int(i == j) for j in range(4)) for i in range(4)]
    return HPolytope.from_data(
        4, [(e, h) for e in eye] + [(tuple(-c for c in e), t) for e in eye])


def integrand_case(case):
    """(potential, p, m, s, lo, hi) of a norm integrand on the box lo..hi;
    "slice" is c_m's integrand, p = 0 on the restricted potential."""
    if case == "slice":
        pot = guillemin_potential(library.corrected_square()).restrict(1, (0,))
        return pot, 0, (1,), 0.0, [-0.5], [1.5]
    poly = {"segment": library.corrected_segment,
            "square": library.corrected_square,
            "box3": corrected_box3, "box4": corrected_box4}[case]()
    n = poly.dim
    return guillemin_potential(poly), 1, (0,) * n, 40.0, [-0.5] * n, [1.5] * n


class TestNormIntegrandPointwise:
    # integrate stacks the nodes of many cells into one call and relies on
    # every node's value being independent of the batch it is in.  2500
    # nodes cross a block boundary of the determinant's sum.
    @pytest.mark.parametrize("case",
                             ["segment", "square", "box3", "slice", "box4"])
    def test_batch_equals_single_nodes(self, case):
        pot, p, m, s, lo, hi = integrand_case(case)
        f = norm_integrand(pot, p, m, s)
        x = np.random.default_rng(11).uniform(lo, hi, (2500, len(lo)))
        batch = f(x)
        assert np.all(batch > 0)
        single = np.array([f(x[i:i + 1])[0] for i in range(len(x))])
        assert np.array_equal(batch, single)

    # the integrand works on facet-major rows; per node it must do the
    # arithmetic of the node-major form, in the same order.  numpy adds
    # fewer than 8 terms along the last axis one after the other, so with
    # R < 8 facets the bits agree.  The 4-box has R = 8, where numpy adds
    # a node's terms pairwise, so only the rounding of that sum may differ
    @pytest.mark.parametrize("case",
                             ["segment", "square", "box3", "slice", "box4"])
    def test_matches_node_major_form(self, case):
        pot, p, m, s, lo, hi = integrand_case(case)
        x = np.random.default_rng(12).uniform(lo, hi, (2500, len(lo)))
        l = pot.facet_values(x).T
        lm = pot.facet_values(np.asarray(m, dtype=float))
        density = np.exp(np.sum(lm * np.log(l) + (lm - l), axis=-1))
        gauss = np.exp(-s * np.sum((x[:, :p] - np.asarray(m[:p])) ** 2,
                                   axis=-1))
        terms = pot.det_terms([s] * p + [0.0] * (pot.dim - p))
        det = terms.det(pot.facet_values(x), terms.coeffs[:, None])
        expected = gauss * density * np.sqrt(det)
        got = norm_integrand(pot, p, m, s)(x)
        if l.shape[1] < 8:
            assert np.array_equal(got, expected)
        else:
            # either order of the 8 terms t_r of the exponent is within
            # 7 u sum_r |t_r| of their exact sum (u = eps / 2); exp and the
            # two products round each side a few times more
            t = np.abs(lm * np.log(l) + (lm - l)).sum(axis=-1)
            bound = 7 * np.finfo(float).eps * (t + 1)
            assert np.all(np.abs(got - expected) <= bound * expected)


class TestNorms:
    def test_segment_oracle(self):
        poly = library.corrected_segment()
        for s, ref in SEG_TILDE.items():
            res = tilde_norm_squared(poly, 1, (0,), s, tol=1e-10)
            assert res.converged
            assert res.value == pytest.approx(ref, abs=1e-8)

    def test_segment_symmetry(self):
        # m = 1 is the mirror image of m = 0 under x -> 1 - x
        poly = library.corrected_segment()
        a = tilde_norm_squared(poly, 1, (0,), 10.0, tol=1e-10).value
        b = tilde_norm_squared(poly, 1, (1,), 10.0, tol=1e-10).value
        assert a == pytest.approx(b, rel=1e-9)

    def test_norm_rescaling(self):
        # e^{2 s H(m)} * tilde, with H(m) = 1/2 sum_{j<=p} m_j^2
        assert norm_from_tilde(1, (1,), 3.0, 2.5) == math.exp(3.0) * 2.5
        assert norm_from_tilde(1, (2, 5), 0.5, 1.0) == math.exp(2.0)
        assert norm_from_tilde(2, (2, 5), 0.1, 3.0) == pytest.approx(
            math.exp(0.2 * 14.5) * 3.0, rel=1e-15)
        assert norm_from_tilde(1, (0, 7), 40.0, 1.25) == 1.25

    def test_limit_constant_closed_form(self):
        poly = library.corrected_segment()
        pot = guillemin_potential(poly)
        for m in ((0,), (1,)):
            assert limit_constant(poly, pot, 1, m, tol=1e-10).value \
                == pytest.approx(SEG_CM, rel=1e-12)
        c_m = limit_constant(poly, pot, 1, (0,), tol=1e-10).value
        assert math.pi ** 0.5 * c_m == pytest.approx(SEG_LIMIT, rel=1e-12)

    def test_square_product_identity(self):
        # P = I x I, p = 1: the rescaled norm factors through the trailing
        # segment, so tilde_sq(s) * c_seg = tilde_seg(s) * c_sq
        sq = library.corrected_square()
        seg = library.corrected_segment()
        c_sq = limit_constant(sq, guillemin_potential(sq), 1, (0, 0),
                              tol=1e-11).value
        for s in (1.0, 10.0):
            t2 = tilde_norm_squared(sq, 1, (0, 0), s, tol=1e-6).value
            t1 = tilde_norm_squared(seg, 1, (0,), s, tol=1e-10).value
            assert t2 * SEG_CM == pytest.approx(t1 * c_sq, rel=1e-5)

    def test_square_p2_point_limit(self):
        # p = n: c_m is the closed-form product over the facets
        sq = library.corrected_square()
        assert limit_constant(sq, guillemin_potential(sq), 2, (0, 0),
                              tol=1e-10).value == pytest.approx(SEG_CM ** 2,
                                                                rel=1e-12)


class TestConvergence:
    def test_richardson_exact_on_polynomial(self):
        s = (2.0, 4.0, 8.0)
        vals = [5.0 + 3.0 / t - 7.0 / t ** 2 for t in s]
        assert richardson_extrapolate(s, vals) == pytest.approx(5.0,
                                                                abs=1e-10)

    def test_segment_limit_verified(self):
        report = verify_norm_limit(library.corrected_segment(), 1, (0,),
                                   (10.0, 20.0, 40.0, 80.0), tol=1e-9)
        assert report.passed
        assert report.target == pytest.approx(SEG_LIMIT, rel=1e-10)
        assert abs(report.extrapolated - report.target) <= 0.02 * report.target
        # raw values approach the target monotonically from below
        gaps = [report.target - r.value for r in report.results]
        assert all(a > b > 0 for a, b in zip(gaps, gaps[1:]))

    def test_report_rows_match_the_norm_functions(self):
        poly = library.corrected_segment()
        report = verify_norm_limit(poly, 1, (1,), (10.0, 20.0), tol=1e-8)
        assert report.c_m_result == limit_constant(
            poly, guillemin_potential(poly), 1, (1,), tol=1e-8)
        assert report.target == math.pi ** 0.5 * report.c_m
        tildes = [tilde_norm_squared(poly, 1, (1,), s, tol=1e-8).value
                  for s in (10.0, 20.0)]
        assert [r.value for r in report.results] == tildes
        assert report.squared_norms == tuple(
            norm_from_tilde(1, (1,), s, t) for s, t in zip((10.0, 20.0), tildes))

    def test_unconverged_integral_does_not_pass(self, monkeypatch):
        monkeypatch.setenv("TORICQ_CELL_BUDGET", "20")
        report = verify_norm_limit(library.corrected_segment(), 1, (0,),
                                   (10.0, 20.0, 40.0), tol=1e-13)
        assert not any(r.converged for r in report.results)
        assert not report.passed

    def test_budget_bounds_the_limit_constant(self, monkeypatch):
        # the corrected Hirzebruch trapezoid 0 <= y <= 1, x + y <= 2
        monkeypatch.setenv("TORICQ_CELL_BUDGET", "8")
        h = Fraction(1, 2)
        poly = DelzantPolytope.from_data(2, [
            ((1, 0), h), ((0, 1), h), ((0, -1), 1 + h), ((-1, -1), 2 + h)])
        report = verify_norm_limit(poly, 1, (0, 0), (10.0, 20.0), tol=1e-13)
        assert all(r.cells_used == 8 for r in report.results)
        assert report.c_m_result.cells_used == 8
        assert report.c_m_result.hit_budget
        assert not report.passed

    def test_unconverged_limit_constant_does_not_pass(self, monkeypatch):
        from toricq import quantization

        def unconverged(*args, **kwargs):
            return integrate_slice(*args, **kwargs)._replace(converged=False)

        monkeypatch.setattr(quantization, "integrate_slice", unconverged)
        for p, m in ((1, (0,)), (1, (0, 0))):
            poly = (library.corrected_segment() if len(m) == 1
                    else library.corrected_square())
            report = verify_norm_limit(poly, p, m, (10.0, 20.0, 40.0, 80.0),
                                       tol=1e-6)
            assert all(r.converged for r in report.results)
            assert abs(report.extrapolated - report.target) \
                <= 0.02 * report.target
            assert report.c_m_result.converged is False
            assert report.passed is False

    def test_squared_norm_past_the_float_range_is_inf(self):
        # e^{2 s H(5)} = e^{1000}
        poly = library.segment(Fraction(-1, 2), Fraction(11, 2))
        tilde = tilde_norm_squared(poly, 1, (5,), 40.0, tol=1.0).value
        assert 0.0 < tilde < math.inf
        assert norm_from_tilde(1, (5,), 40.0, tilde) == math.inf


class TestNormCounts:
    """The counts of the s-integrals, read from `ConvergenceReport.results`:
    they run in lockstep, outside the `integrate` that bench/tracing.py
    wraps."""

    def test_norms_command_counts_cells(self):
        # p = n: two norms integrals, and c_m in closed form
        report = verify_norm_limit(library.corrected_segment(), 1, (0,),
                                   (10.0, 20.0), tol=1e-6)
        assert len(report.results) == 2
        assert all(r.cells_used > 0 for r in report.results)
        assert report.c_m_result.integrand_calls == 1

    def test_each_new_cell_reuses_its_parent_half_value(self):
        # the segment rules share q = 13 distinct nodes.  Without a budget
        # stop an integral passes nodes = 4q cells - q roots + 4q u, where u
        # counts the roots never split.  A segment integral has one root,
        # which these integrals split (u = 0), so nodes = 52 cells - 13.
        # Evaluating one split per call, and the root in two, would take
        # 2 + (cells - 1) calls per integral; the splits are evaluated in
        # batches, in far fewer calls.  The tolerance is tight enough for
        # the integrals to need batches.
        report = verify_norm_limit(library.corrected_segment(), 1, (0,),
                                   (10.0, 20.0), tol=1e-10)
        for r in report.results:
            assert r.cells_used > 1 and not r.hit_budget
            assert r.nodes == 52 * r.cells_used - 13
            assert r.integrand_calls <= (r.cells_used + 1) // 2


class TestLockstepNorms:
    @pytest.mark.parametrize("poly, p, m, grid", [
        (library.corrected_segment(), 1, (1,), (10.0, 20.0, 40.0)),
        (library.corrected_square(), 1, (0, 1), (10.0, 20.0, 40.0, 80.0)),
        (library.corrected_square(), 2, (1, 0), (1e-3, 1.0, 1e3)),
    ], ids=["segment", "square", "square-p2"])
    def test_equals_one_s_at_a_time(self, poly, p, m, grid):
        report = verify_norm_limit(poly, p, m, grid, tol=1e-7)
        alone = [tilde_norm_squared(poly, p, m, s, tol=1e-7) for s in grid]
        assert [repr(r) for r in report.results] == [repr(r) for r in alone]

    def test_det_columns_built_once_per_point(self, monkeypatch):
        # each s has its own det G_s coefficients, but the s-integrals read
        # the index arrays of the first s only, and c_m those of its own
        from toricq import potential

        calls = []
        real = potential._columns

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(potential, "_columns", counted)
        verify_norm_limit(library.corrected_square(), 1, (0, 0),
                          (10.0, 20.0, 40.0, 80.0), tol=1e-6)
        assert len(calls) == 2

    @pytest.mark.parametrize("grid", [(0.0, 10.0), (10.0, 10.0)])
    def test_grid_checked_before_any_integral(self, monkeypatch, grid):
        from toricq import quantization

        calls = []
        real = quantization.norm_integrand

        def counted(*args, **kwargs):
            f = real(*args, **kwargs)

            def integrand(*x):
                calls.append(len(x[0]))
                return f(*x)

            return integrand

        monkeypatch.setattr(quantization, "norm_integrand", counted)
        with pytest.raises(ValueError, match="positive and distinct"):
            verify_norm_limit(library.corrected_square(), 1, (0, 0), grid,
                              tol=1e-6)
        assert calls == []
