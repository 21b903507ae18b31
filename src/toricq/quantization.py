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
boundary regularization.  The norms of one m at all its s are integrated
in lockstep, one integrand call per refinement round.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .polytope import PolytopeError
from .potential import (DomainError, SymplecticPotential, finite,
                        guillemin_potential, to_float)
from .quadrature import (IntegralResult, integrate_lockstep, integrate_slice,
                         triangulate)

# relative distance from the limit within which the extrapolated norms pass
LIMIT_REL_TOL = 0.02


class QuantumBasisElement(NamedTuple):
    """Monomial section label: lattice point m and its ray energy H(m)."""

    m: tuple
    hamiltonian_value: float
    index: int


def hamiltonian_value(m, p: int):
    """Ray energy H(m) = 1/2 sum_{j<=p} m_j^2, broadcast over the leading
    axes of m; a float for one point, and a DomainError past the floats."""
    with finite("H(m) = 1/2 |m_{<=p}|^2 is beyond the float range"):
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
    """Vectorized prod_r l_r(x)^{l_r(m)} e^{l_r(m) - l_r(x)}, read from the
    facet values at the nodes x, one row per facet."""
    lm = pot.facet_values(np.asarray(m, dtype=float))[:, None]
    if np.any(lm < 0.5 - 1e-12):
        raise PolytopeError(
            f"lattice point {m} has a facet value below 1/2; "
            "the polytope is not half-form shifted")

    def density(l):
        """The density at the nodes of l = facet_values(x), (R, N)."""
        # sum adds the facet rows in order, for any number of nodes, and
        # takes temporaries of one row at a time
        return np.exp(sum(a * np.log(r) + (a - r) for a, r in zip(lm, l)))

    return density


def _det_terms(pot: SymplecticPotential, p: int, s):
    """The Cauchy-Binet terms of det G_s; a DomainError naming s if a
    coefficient overflows."""
    with finite("s = %r: a coefficient of det G_s overflows", s):
        return pot.det_terms([s] * p + [0.0] * (pot.dim - p))


def norm_integrand(pot: SymplecticPotential, p: int, m, s, terms=None):
    """Vectorized (x, starts=None) -> e^{-s sum_{j<=p}(x_j - m_j)^2} *
    stable density * sqrt(det G_s), with G_s the Hessian of g plus s on the
    first p axes; s is a time, or a list of times with s[j] at rows
    starts[j] to starts[j + 1] of x.  det G_s is the Cauchy-Binet sum of
    `_det_terms`, built once here or given as terms, over one set of facet
    subsets.  The density and every det read one matmul's facet values as
    they are, so a batch gives the same bits as its nodes one by one where
    that matmul does; in 4-D, BLAS can round a node of a batch apart."""
    density = stable_density(pot, m)
    mm = np.asarray(m, dtype=float)[:p]
    times = list(s) if np.ndim(s) else [s]
    terms = terms or [_det_terms(pot, p, t) for t in times]
    ts, table = np.array(times, float), np.array([t.coeffs for t in terms]).T

    def f(x, starts=None):
        l = pot.facet_values(x)
        # det first: its blocks' temporaries are the largest of a call
        root = np.sqrt(terms[0].det(l, table, starts))
        t = ts[0] if starts is None else ts.repeat(np.diff(starts))
        gauss = np.exp(-t * sum((x[:, j] - mm[j]) ** 2 for j in range(p)))
        return gauss * density(l) * root

    return f


def _norm_integrals(pot, region, p, m, s_values, tol):
    """The norm integrals at the positive s_values over the region, in
    lockstep, with numpy's float errors ignored.  For every s > 0
    the zero shifts are the trailing n - p axes, so every det G_s has the
    same facet subsets.  The first s at which a coefficient of det G_s
    overflows or the integral is not finite names a DomainError."""
    terms, error = [], None
    for s in s_values:
        try:
            terms.append(_det_terms(pot, p, s))
        except DomainError as exc:
            error = exc
            break
    times = s_values[:len(terms)]
    f = norm_integrand(pot, p, m, times, terms)
    results = []
    # the s share integrand calls: only each integral's value names its s
    with np.errstate(all="ignore"):
        for s, res in zip(times, integrate_lockstep(f, region, tol,
                                                    len(times))):
            if not math.isfinite(res.value):
                raise DomainError(f"s = {s!r}: the norm integral is not finite")
            results.append(res)
    if error:
        raise error
    return tuple(results)


def tilde_norm_squared(poly, p: int, m, s: float,
                       tol: float) -> IntegralResult:
    """Rescaled squared norm at one s, the x-integral of the norm
    integrand: a reference, as `verify_norm_limit` runs its whole s-grid
    in lockstep; bench/tracing.py patches it by name."""
    return _norm_integrals(guillemin_potential(poly), triangulate(poly), p,
                           m, [s], tol)[0]


def norm_from_tilde(p: int, m, s: float, tilde: float) -> float:
    """e^{2 s H(m)} * tilde: a squared norm from its rescaled value, or inf
    when it exceeds the float range."""
    try:
        return math.exp(2.0 * s * hamiltonian_value(m, p)) * tilde
    except OverflowError:
        return math.inf


def limit_constant(poly, pot: SymplecticPotential, p: int, m,
                   tol: float) -> IntegralResult:
    """The slice IntegralResult whose value is c_m: the s = 0 squared norm
    of m_{>p} for the potential restricted to the level x_{<=p} = m_{<=p},
    i.e. the stable density against the sqrt(det D) half-form factor of
    the trailing block, over the slice.

    For p = n the slice is the point m and c_m = prod_r l_r(m)^{l_r(m)}.
    pot is poly's Guillemin potential.
    """
    c = tuple(m)[:p]
    f = norm_integrand(pot.restrict(p, c), 0, tuple(m)[p:], 0.0)
    return integrate_slice(f, poly, p, c, tol)


# ---------------------------------------------------------------------------
# limit verification


class ConvergenceReport(NamedTuple):
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
    """Fit values(s) = a0 + a1/s + ... and return a0; a DomainError if the
    system in 1/s is singular in floats or a power of 1/s overflows."""
    s = np.asarray(s_values, dtype=float)
    with finite("s-grid %s: the extrapolation to s = oo is singular or not "
                "finite", ",".join(map(repr, s.tolist()))):
        V = np.vander(1.0 / s, N=len(s), increasing=True)
        return float(np.linalg.solve(V, np.asarray(values, float))[0])


def verify_norm_limit(poly, p: int, m, s_values,
                      tol: float) -> ConvergenceReport:
    """Extrapolate the rescaled norms along s_values and compare with the
    slice-integral limit pi^{p/2} c_m.  It passes when the extrapolation is
    within max(tol, 2 % of the limit) and every integral, the norms and
    c_m, converged."""
    if len(s_values) != len(set(s_values)) or any(s <= 0 for s in s_values):
        raise ValueError("s values must be positive and distinct")
    # norms first: c_m sees only m_{>p}, and a bad shift should name all of m
    pot, region = guillemin_potential(poly), triangulate(poly)
    results = _norm_integrals(pot, region, p, m, s_values, tol)
    c_m = limit_constant(poly, pot, p, m, tol)
    target = math.pi ** (p / 2.0) * c_m.value
    extrap = richardson_extrapolate(s_values, [r.value for r in results])
    passed = (abs(extrap - target) <= max(tol, LIMIT_REL_TOL * abs(target))
              and all(r.converged for r in results + (c_m,)))
    return ConvergenceReport(m=tuple(m), p=p, s_values=tuple(s_values),
                             results=results, c_m_result=c_m, target=target,
                             extrapolated=extrap, passed=passed)

