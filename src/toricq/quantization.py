"""Quantum basis, norms along the ray, and their infinite-time limits.

The basis is indexed by the lattice points m of the (already half-integrally
shifted) polytope.  One integrand serves every norm: at time s on the whole
polytope, and at s = 0 for the limit constant c_m, where it is the norm of
m_{>p} for the potential restricted to the level x_{<=p} = m_{<=p}.  All
integrals use the boundary-safe density

    prod_r l_r(x)^{l_r(m)} * exp(l_r(m) - l_r(x)),

which equals exp(-2((x - m).y - g(x))) on the interior and stays bounded up
to the boundary because every exponent l_r(m) is at least 1/2.  Together
with the sqrt(det G_s) half-form factor the integrand behaves like
prod_r l_r^{l_r(m) - 1/2}, so open quadrature rules converge without any
boundary regularization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .polytope import PolytopeError
from .potential import (DomainError, SymplecticPotential, facet_rows,
                        guillemin_potential, to_float)
from .quadrature import IntegralResult, integrate, integrate_slice, triangulate

# relative distance from the limit within which the extrapolated norms pass
LIMIT_REL_TOL = 0.02


@dataclass(frozen=True)
class QuantumBasisElement:
    """Monomial section label: lattice point m and its ray energy H(m)."""

    m: tuple
    hamiltonian_value: float
    index: int


def hamiltonian_value(m, p: int):
    """Ray energy H(m) = 1/2 sum_{j<=p} m_j^2, broadcast over the leading
    axes of m; a float for a single point."""
    h = 0.5 * np.sum(np.asarray(m, dtype=float)[..., :p] ** 2, axis=-1)
    return h if h.ndim else float(h)


def quantum_basis(poly, p: int):
    """Basis elements for the lattice points of poly, lexicographic order;
    H reads only the coordinates m_{<=p}."""
    if not 1 <= p <= poly.dim:
        raise ValueError("p out of range")
    points = poly.lattice_points()
    energies = hamiltonian_value(np.array(
        [[to_float(c) for c in m[:p]] for m in points]).reshape(-1, p), p)
    return [QuantumBasisElement(m=m, hamiltonian_value=h, index=i)
            for i, (m, h) in enumerate(zip(points, energies.tolist()))]


def stable_density(pot: SymplecticPotential, m):
    """Vectorized x -> prod_r l_r(x)^{l_r(m)} e^{l_r(m) - l_r(x)}."""
    lm = pot.facet_values(np.asarray(m, dtype=float))[:, None]
    if np.any(lm < 0.5 - 1e-12):
        raise PolytopeError(
            f"lattice point {m} has a facet value below 1/2; "
            "the polytope is not half-form shifted")

    def density(x, l=None):
        """The density at the nodes x; l, if given, is facet_values(x).T."""
        if l is None:
            l = pot.facet_values(np.atleast_2d(x)).T
        # sum adds the facet rows in order, for any number of nodes
        return np.exp(sum(lm * np.log(l) + (lm - l)))

    return density


def norm_integrand(pot: SymplecticPotential, p: int, m, s: float):
    """Vectorized x -> e^{-s sum_{j<=p}(x_j - m_j)^2} * stable density
    * sqrt(det G_s), with G_s the Hessian of g plus s on the first p axes.

    det G_s is the Cauchy-Binet sum of `pot.det_terms`, built once here.
    Each call copies its facet values once into the facet-major rows that
    both read; a batch gives the same bits as its nodes one by one."""
    density = stable_density(pot, m)
    mm = np.asarray(m, dtype=float)[:p]
    try:
        det = pot.det_terms([s] * p + [0.0] * (pot.dim - p)).det
    except OverflowError:
        raise DomainError(f"s = {s!r}: a coefficient of det G_s overflows")

    def f(x):
        w = facet_rows(pot.facet_values(x))
        gauss = np.exp(-s * sum((x[:, j] - mm[j]) ** 2 for j in range(p)))
        return gauss * density(x, w) * np.sqrt(det(w))

    return f


def _norm_integral(pot, region, p, m, s, tol, budget):
    """The norm integral at s over the region, with numpy's floating-point
    warnings off; a value that is not finite is a DomainError naming s."""
    with np.errstate(all="ignore"):
        res = integrate(norm_integrand(pot, p, m, s), region, tol, budget)
    if not math.isfinite(res.value):
        raise DomainError(f"s = {s!r}: the norm integral is not finite")
    return res


def tilde_norm_squared(poly, p: int, m, s: float, tol: float = 1e-9,
                       budget=None) -> IntegralResult:
    """Rescaled squared norm: the x-integral of the norm integrand.  No
    caller in the package; bench/tracing.py times the norms through it."""
    return _norm_integral(guillemin_potential(poly), triangulate(poly), p, m,
                          s, tol, budget)


def norm_from_tilde(p: int, m, s: float, tilde: float) -> float:
    """e^{2 s H(m)} * tilde: a squared norm from its rescaled value, or inf
    when it exceeds the float range."""
    try:
        return math.exp(2.0 * s * hamiltonian_value(m, p)) * tilde
    except OverflowError:
        return math.inf


def limit_constant(poly, p: int, m, tol: float = 1e-10, budget=None, *,
                   as_result: bool = False, _pot=None):
    """c_m: the s = 0 squared norm of m_{>p} for the potential restricted to
    the level x_{<=p} = m_{<=p}, i.e. the stable density against the
    sqrt(det D) half-form factor of the trailing block, over the slice.

    For p = n the slice is the point m and c_m = prod_r l_r(m)^{l_r(m)}.
    With as_result, the slice IntegralResult whose value is c_m, which
    also tells whether it converged.  _pot is poly's Guillemin potential.
    """
    c = tuple(m)[:p]
    pot = (_pot or guillemin_potential(poly)).restrict(p, c)
    f = norm_integrand(pot, 0, tuple(m)[p:], 0.0)
    res = integrate_slice(f, poly, p, c, tol, budget=budget)
    return res if as_result else res.value


# ---------------------------------------------------------------------------
# limit verification


@dataclass(frozen=True)
class ConvergenceReport:
    """The rescaled norms of m along s_values, their extrapolation to
    s = oo, and the limit pi^{p/2} c_m they are checked against."""

    m: tuple
    p: int
    s_values: tuple
    results: tuple        # IntegralResult of the rescaled norm at each s
    c_m_result: IntegralResult
    target: float
    extrapolated: float
    passed: bool

    @property
    def c_m(self):
        return self.c_m_result.value

    @property
    def squared_norms(self):
        return tuple(norm_from_tilde(self.p, self.m, s, r.value)
                     for s, r in zip(self.s_values, self.results))


def richardson_extrapolate(s_values, values) -> float:
    """Fit values(s) = a0 + a1/s + ... and return the constant term a0."""
    s = np.asarray(s_values, dtype=float)
    if len(s) != len(set(s_values)) or np.any(s <= 0):
        raise ValueError("s values must be positive and distinct")
    eps = 1.0 / s
    V = np.vander(eps, N=len(eps), increasing=True)
    coeffs = np.linalg.solve(V, np.asarray(values, dtype=float))
    return float(coeffs[0])


def verify_norm_limit(poly, p: int, m, s_values, tol: float = 1e-9,
                      budget=None) -> ConvergenceReport:
    """Extrapolate the rescaled norms along s_values and compare with the
    slice-integral limit pi^{p/2} c_m.  It passes when the extrapolation is
    within max(tol, 2 % of the limit) and every integral, the norms and
    c_m, converged; budget caps the cells of each integral."""
    # norms first: c_m sees only m_{>p}, and a bad shift should name all of m
    pot, region = guillemin_potential(poly), triangulate(poly)
    results = tuple(_norm_integral(pot, region, p, m, s, tol, budget)
                    for s in s_values)
    c_m = limit_constant(poly, p, m, tol=tol, budget=budget, as_result=True,
                         _pot=pot)
    target = math.pi ** (p / 2.0) * c_m.value
    extrap = richardson_extrapolate(s_values, [r.value for r in results])
    passed = (abs(extrap - target) <= max(tol, LIMIT_REL_TOL * abs(target))
              and all(r.converged for r in results + (c_m,)))
    return ConvergenceReport(m=tuple(m), p=p, s_values=tuple(s_values),
                             results=results, c_m_result=c_m, target=target,
                             extrapolated=extrap, passed=passed)

