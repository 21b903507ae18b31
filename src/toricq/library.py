"""Ready-made polytopes used throughout the tests and the CLI examples."""

from __future__ import annotations

from fractions import Fraction

from .polytope import DelzantPolytope


def segment(a=0, b=1):
    """[a, b] as {x - a >= 0, -x + b >= 0}."""
    return DelzantPolytope.from_data(
        1, [((1,), -Fraction(a)), ((-1,), Fraction(b))])


def corrected_segment():
    """[-1/2, 3/2], the half-form corrected unit segment (CP^1)."""
    return segment(Fraction(-1, 2), Fraction(3, 2))


def square(side=1):
    """[0, side]^2."""
    s = Fraction(side)
    return DelzantPolytope.from_data(
        2, [((1, 0), 0), ((-1, 0), s), ((0, 1), 0), ((0, -1), s)])


def corrected_square():
    """[-1/2, 3/2]^2."""
    h = Fraction(1, 2)
    return DelzantPolytope.from_data(
        2, [((1, 0), h), ((-1, 0), Fraction(3, 2)),
            ((0, 1), h), ((0, -1), Fraction(3, 2))])


def simplex(scale=1):
    """{x >= 0, y >= 0, -x - y + scale >= 0}."""
    return DelzantPolytope.from_data(
        2, [((1, 0), 0), ((0, 1), 0), ((-1, -1), Fraction(scale))])

