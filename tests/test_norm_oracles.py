"""Rescaled norms against independent high-precision oracles.

Every integral that reports converged=True must be within its tol of the
true value.  On a box the Guillemin Hessian is diagonal, so the norm
integrand is a product of one factor per axis and the reference is a
product of 1-D mpmath integrals.
"""

from fractions import Fraction

import mpmath
import pytest

from toricq.polytope import DelzantPolytope
from toricq.quantization import tilde_norm_squared

HALF = Fraction(1, 2)


def corrected_box(sides):
    """[-1/2, side + 1/2] along each axis."""
    n = len(sides)
    return DelzantPolytope.from_data(n, [
        (tuple(sign * int(i == j) for j in range(n)),
         HALF if sign > 0 else side + HALF)
        for i, side in enumerate(sides) for sign in (1, -1)])


def axis_factor(side, m, s):
    """The x-integral over [-1/2, side + 1/2] of
    e^{-s (x - m)^2} prod_r l_r^{l_r(m)} e^{l_r(m) - l_r} sqrt(g'' + s),
    with facet values a = x + 1/2, b = side + 1/2 - x and the Guillemin
    g'' = (1/a + 1/b) / 2; s = 0 gives a trailing axis's factor."""
    mp = mpmath.mp
    lo, hi = -mp.mpf(1) / 2, side + mp.mpf(1) / 2
    am, bm = m - lo, hi - m

    def f(x):
        a, b = x - lo, hi - x
        log_density = am * mp.log(a) + am - a + bm * mp.log(b) + bm - b
        return (mp.exp(-s * (x - m) ** 2 + log_density)
                * mp.sqrt((1 / a + 1 / b) / 2 + s))

    points = [lo, hi]
    if s:
        # break the interval at the Gaussian's centre and its tails
        width = 8 / mp.sqrt(s)
        points[1:1] = [x for x in (m - width, m, m + width) if lo < x < hi]
    return mp.quad(f, points)


def box_reference(sides, m, s):
    """The p = 1 rescaled norm of m on the corrected box, to 20 digits."""
    with mpmath.workdps(20):
        value = axis_factor(sides[0], m[0], s)
        for side, mj in zip(sides[1:], m[1:]):
            value *= axis_factor(side, mj, 0)
        return float(value)


SWEEP = [(n, s, tol) for n in (2, 3) for s in (10.0, 80.0, 640.0)
         for tol in (1e-2, 1e-4, 1e-6)
         # 89k cells and about 45 s; its error was 0.02 tol when run once
         if (n, s, tol) != (3, 640.0, 1e-6)]


@pytest.mark.parametrize("n, s, tol", SWEEP)
def test_converged_box_norms_are_within_tol(n, s, tol):
    # the corrected unit box [-1/2, 3/2]^n, p = 1, m = 0
    sides, m = (1,) * n, (0,) * n
    res = tilde_norm_squared(corrected_box(sides), 1, m, s, tol=tol)
    assert res.converged or res.hit_budget
    if res.converged:
        assert abs(res.value - box_reference(sides, m, s)) <= tol


# rescaled norm of m = (1, 0), p = 1, s = 20 on the corrected Hirzebruch
# trapezoid x, y >= -1/2, y <= 3/2, x + y <= 5/2, computed once with
# iterated 25-digit mpmath tanh-sinh quadrature (y inner over the chord,
# x outer broken at m_1 and m_1 +- 8/sqrt(s)) of the Gaussian times the
# stable density times sqrt(det G_s) of the Guillemin Hessian
HIRZEBRUCH_ORACLE = 12.0985634766618085


@pytest.mark.parametrize("m", [2, 4])
def test_wide_segment_gaussian_is_not_missed(m):
    # [-1/2, 13/2] at s = 40: the Gaussian of width 0.16 lies between the
    # nodes of a coarse rule, whose two levels then agree on almost 0
    sides = (6,)
    res = tilde_norm_squared(corrected_box(sides), 1, (m,), 40.0, tol=10.0)
    assert res.converged
    assert abs(res.value - box_reference(sides, (m,), 40.0)) <= 10.0


def test_hirzebruch_error_estimate_bounds_the_value():
    poly = DelzantPolytope.from_data(2, [
        ((1, 0), HALF), ((0, 1), HALF), ((0, -1), 1 + HALF),
        ((-1, -1), 2 + HALF)])
    res = tilde_norm_squared(poly, 1, (1, 0), 20.0, tol=0.01)
    assert res.converged
    assert abs(res.value - HIRZEBRUCH_ORACLE) <= 0.01
