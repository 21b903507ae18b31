"""Symplectic potentials and the Kahler data they induce.

The Guillemin potential of a polytope with facet functions l_r is
g(x) = 1/2 sum_r l_r(x) log l_r(x).  Value, gradient, Hessian, third
derivatives and the Abreu scalar curvature are closed-form; `restrict` fixes
the leading coordinates to a level.  Boundary behaviour is only ever probed
through the dedicated limit paths of the quadrature and quantization modules.

Hess g + diag(d) = 1/2 A^T diag(1/l) A + diag(d), so by Cauchy-Binet its
determinant is the sum of c_T prod_{r in T} 1/l_r over facet subsets T,
each term nonnegative for d >= 0, with c_T built once from exact minors of
A (`det_terms`).  The half-form factor sqrt(det G_s) and Abreu's regularity
function are read from facet-major rows of facet values (`facet_rows`),
with no Hessian and no factorization per point.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


class DomainError(ValueError):
    """Evaluation requested outside the open polytope interior."""


class PointError(DomainError):
    """A point that is not interior, or too close to the boundary."""


def to_float(q):
    """float(q) for exact data; a DomainError that names q when it is
    beyond the float range."""
    try:
        return float(q)
    except OverflowError:
        raise DomainError(f"{q} is beyond the float range") from None


class SymplecticPotential:
    """Evaluator bundle (g, grad g, Hess g, third derivatives) on the open
    interior of a polytope given by float facet data A x + b >= 0."""

    def __init__(self, normals, offsets, barycenter=None):
        self.A = np.atleast_2d(np.asarray(normals, dtype=float))
        self.b = np.asarray(offsets, dtype=float)
        self.dim = self.A.shape[1]
        self._barycenter = None if barycenter is None else np.asarray(
            barycenter, dtype=float)
        self._minors = None             # _squared_minors(A), on first use

    @property
    def barycenter(self):
        if self._barycenter is None:
            raise DomainError("potential has no interior reference point")
        return self._barycenter

    # -- facet helpers ------------------------------------------------------

    def facet_values(self, x):
        """l_r(x) for every facet; x is (..., n)."""
        return np.asarray(x) @ self.A.T + self.b

    def is_interior(self, x, margin=0.0):
        return bool(np.all(self.facet_values(x) > margin))

    def _require_interior(self, x):
        if not np.all(self.facet_values(x) > 0):
            raise PointError(f"point {np.asarray(x)} is not interior")

    # -- evaluators (broadcast over leading axes) ---------------------------

    def value(self, x):
        l = self.facet_values(x)
        return 0.5 * np.sum(l * np.log(l), axis=-1)

    def grad(self, x):
        l = self.facet_values(x)
        return 0.5 * (np.log(l) + 1.0) @ self.A

    def hess(self, x):
        """Hess g at x."""
        l = self.facet_values(x)
        return 0.5 * np.einsum('...r,rj,rk->...jk', 1.0 / l, self.A, self.A)

    def det_terms(self, shift=None) -> "DetTerms":
        """The Cauchy-Binet terms of det(Hess g + diag(shift)); shift has one
        entry per axis (zeros if None).

        With d the shifted diagonal, c_T = 2^-|T| sum_C det(A[T, C])^2
        prod_{j not in C} d_j over the column sets C with |C| = |T|.  Each
        c_T is the correctly rounded value of that exact sum; the subsets
        with c_T = 0 are dropped."""
        d = np.zeros(self.dim) if shift is None else np.asarray(
            shift, dtype=float)
        d, e = _dyadic(d.tolist())      # d_j = d[j] / 2^e
        self._minors = self._minors or _squared_minors(self.A)
        e_A, table = self._minors
        subsets, coeffs = [], []
        for T, terms in table:
            k = len(T)
            c = sum(m2 * math.prod(d[j] for j in J) for J, m2 in terms)
            if c:
                # c_T is c / 2^bits, and int division rounds correctly
                bits = e * (self.dim - k) + k + 2 * k * e_A
                subsets.append(T)
                coeffs.append(c / (1 << bits))
        return DetTerms(tuple(subsets), np.array(coeffs),
                        facets=self.A.shape[0])

    def third(self, x):
        """T[j,k,l] = d^3 g / dx_j dx_k dx_l."""
        l = self.facet_values(x)
        return -0.5 * np.einsum('...r,rj,rk,rl->...jkl',
                                1.0 / l ** 2, self.A, self.A, self.A)

    def restrict(self, p: int, c, barycenter=None) -> "SymplecticPotential":
        """y -> g(c, y) up to a constant, with facet data (A[:, p:],
        A[:, :p] c + b); a facet with zero trailing normal stays a constant."""
        c = np.asarray(c, dtype=float)
        return SymplecticPotential(self.A[:, p:], self.A[:, :p] @ c + self.b,
                                   barycenter=barycenter)


def _dyadic(values):
    """Ints m_i and e with values_i = m_i / 2^e, exactly."""
    ratios = [v.as_integer_ratio() for v in values]
    e = max([0] + [den.bit_length() - 1 for _, den in ratios])
    return [num << (e + 1 - den.bit_length()) for num, den in ratios], e


def _squared_minors(A):
    """e and, for every facet subset T, its nonzero (J, det(M[T, C])^2),
    where M = 2^e A is the integer form of the float array A, and C is the
    set of the |T| columns not in J.  Minors of one size are expanded along
    their first row from the smaller ones.  This memoized expansion stays
    apart from `polytope._det`, the elimination kernel: it needs every
    minor of every facet subset, and each costs one expansion step over the
    minors of one row fewer, where `_det` would eliminate every minor from
    scratch."""
    R, n = A.shape
    A, e = _dyadic(A.ravel().tolist())
    minors = {((), ()): 1}
    out = [((), [(tuple(range(n)), 1)])]
    for k in range(1, n + 1):
        for T in itertools.combinations(range(R), k):
            row = A[T[0] * n:(T[0] + 1) * n]
            terms = []
            for C in itertools.combinations(range(n), k):
                m = sum((-1) ** i * row[c] * minors[T[1:], C[:i] + C[i + 1:]]
                        for i, c in enumerate(C) if row[c])
                minors[T, C] = m
                if m:
                    terms.append((tuple(j for j in range(n) if j not in C),
                                  m * m))
            if terms:
                out.append((T, terms))
    return e, tuple(out)


class DetTerms:
    """det(Hess g + diag(d)) = sum_T c_T prod_{r in T} 1/l_r over facet
    subsets T; see `SymplecticPotential.det_terms`.
    With no subset (A of lower rank) the sum is the single term 0."""

    def __init__(self, subsets, coeffs, facets):
        if not subsets:
            subsets, coeffs = ((),), np.zeros(1)
        self.subsets = subsets
        self.coeffs = coeffs
        self.facets = facets
        self._columns = _columns(subsets, facets)
        self._rest = None           # the complements' columns, on first use

    def det(self, w):
        """The determinant at each node of w = facet_rows(l)."""
        return _subset_sum(w, np.reciprocal, self._columns, self.coeffs)

    def det_times_facet_product(self, w):
        """det * prod_r l_r = sum_T c_T prod_{r not in T} l_r at each node
        of w = facet_rows(l), with no division."""
        self._rest = self._rest or _columns(
            [tuple(r for r in range(self.facets) if r not in T)
             for T in self.subsets], self.facets)
        return _subset_sum(w, np.positive, self._rest, self.coeffs)


def _columns(subsets, facets):
    """The subsets padded with the index `facets` of a row of ones to one
    width (at least 1), as that many index arrays: the j-th facet of
    every subset."""
    width = max([1] + [len(T) for T in subsets])
    index = np.array([T + (facets,) * (width - len(T)) for T in subsets],
                     dtype=np.intp).reshape(len(subsets), width)
    return tuple(np.ascontiguousarray(index.T))


def facet_rows(l):
    """Facet values l, (..., R), as C-contiguous facet-major rows (R, N)
    over the N nodes, in at most one transposed copy."""
    return np.ascontiguousarray(l.reshape(-1, l.shape[-1]).T)


# nodes per block of _subset_sum, which bounds its temporaries
_BLOCK = 2048


def _subset_sum(w, op, columns, coeffs):
    """sum_T coeffs_T prod_{r in T} op(w_r) at the nodes of w = facet_rows(l)
    for the subsets' facet `columns`, R meaning a factor 1.  A block of nodes
    writes op(w) into a factor block whose last row is ones, gathers it once
    per column and folds the rows of terms in halves, so each node's sum has
    a fixed order and a batch gives the same bits as its nodes one by one."""
    R, N = w.shape
    out = np.empty(N)
    for a in range(0, N, _BLOCK):
        factors = np.empty((R + 1, min(_BLOCK, N - a)))
        op(w[:, a:a + _BLOCK], out=factors[:R])
        factors[R] = 1.0
        terms = factors[columns[0]]
        terms *= coeffs[:, None]
        for c in columns[1:]:
            terms *= factors[c]
        k = len(terms)
        while k > 1:
            h = (k + 1) // 2
            terms[:k - h] += terms[h:k]
            k = h
        out[a:a + _BLOCK] = terms[0]
    return out


def guillemin_potential(poly) -> SymplecticPotential:
    """Guillemin potential g_P = 1/2 sum l_r log l_r."""
    return SymplecticPotential(
        [[to_float(c) for c in f.normal] for f in poly.facets],
        [to_float(f.offset) for f in poly.facets])


def regularity_delta(pot: SymplecticPotential, x):
    """Abreu's delta(x) = (det Hess g * prod_r l_r)^(-1), the reciprocal of
    the positive polynomial sum_T c_T prod_{r not in T} l_r of the
    Cauchy-Binet terms; strictly positive inside."""
    pot._require_interior(x)
    w = facet_rows(pot.facet_values(x))
    return float(1.0 / pot.det_terms().det_times_facet_product(w)[0])


def abreu_scalar_curvature(pot: SymplecticPotential, x):
    """Scalar curvature S = -1/2 sum_{jk} d^2 (G^-1)_{jk} / dx_j dx_k.

    The -1/2 normalization is calibrated so that the reduced potential
    1/2 (x1 log x1 + x2 log x2 + a(x1+x2) log(a(x1+x2))) yields
    S = 2a/((a+1)(x1+x2)); the round-segment [0, lam] value is 2/lam.
    In closed form, with H = G^-1, T_j = d_j G and d_j d_k G = sum_r
    a_rj a_rk a_r a_r^T / l_r^3: d_j d_k H = H T_j H T_k H + H T_k H T_j H
    - H (d_j d_k G) H.  Its O(1/dist) terms cancel, so rounding grows as
    the point nears a facet; points within 8e-10 of the boundary are rejected.
    """
    x = np.asarray(x, dtype=float)
    pot._require_interior(x)
    # min l_r/|nu_r| over nonconstant facets bounds the boundary distance;
    # hypot takes |nu_r| without squaring, so huge normals do not overflow
    l, norms = pot.facet_values(x), np.hypot.reduce(pot.A, axis=1, initial=0)
    if np.min(l[norms > 0] / norms[norms > 0]) < 8e-10:
        raise PointError("point too close to the boundary for the "
                         "curvature formula")
    try:
        H = np.linalg.inv(pot.hess(x))
    except np.linalg.LinAlgError:
        raise DomainError(f"the Hessian at {x} is singular in floats") from None
    HT = np.einsum('ab,jbc->jac', H, pot.third(x))      # H T_j
    HTHTH = np.einsum('jab,kbc,cd->jkad', HT, HT, H)     # H T_j H T_k H
    aHa = np.einsum('rj,jk,rk->r', pot.A, H, pot.A)      # a_r . H a_r
    # sum_jk (H d_j d_k G H)_jk = sum_r (a_r . H a_r)^2 / l_r^3
    S = -0.5 * float(np.einsum('jkjk->', HTHTH) + np.einsum('jkkj->', HTHTH)
                     - np.sum(aHa ** 2 / l ** 3))
    if not math.isfinite(S):
        raise DomainError(f"the scalar curvature at {x} is not finite in "
                          "floats")
    return S
