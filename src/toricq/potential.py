"""Symplectic potentials and the Kahler data they induce.

The Guillemin potential of a polytope with facet functions l_r is
g(x) = 1/2 sum_r l_r(x) log l_r(x).  Its Hessian, third derivatives and
Abreu scalar curvature are closed-form, the curvature with no cut-off near
the boundary; `restrict` fixes the leading coordinates to a level.

Hess g + diag(d) = 1/2 A^T diag(1/l) A + diag(d), so by Cauchy-Binet its
determinant is the sum of c_T prod_{r in T} 1/l_r over facet subsets T,
each term nonnegative for d >= 0, with c_T built once from exact minors of
A (`det_terms`).  The half-form factor sqrt(det G_s) and Abreu's regularity
function are read from the facet values, one row per facet (`facet_values`),
with no copy, no Hessian and no factorization per point.
"""

from __future__ import annotations

import contextlib
import itertools
import math

import numpy as np


class DomainError(ValueError):
    """Evaluation requested outside the open polytope interior."""


class PointError(DomainError):
    """A point that is not interior: a usage error, not a domain failure."""


# numpy's float rule in every command: only underflow is quiet, rounding to 0
RAISE = dict(over="raise", invalid="raise", divide="raise", under="ignore")


@contextlib.contextmanager
def finite(message, *args):
    """Run under RAISE, with FloatingPointError, float OverflowError and
    LinAlgError (not ZeroDivisionError) as DomainError(message % args)."""
    with np.errstate(**RAISE):
        try:
            yield
        except (FloatingPointError, OverflowError, np.linalg.LinAlgError):
            raise DomainError(message % args) from None


def to_float(q):
    """float(q) for exact data; a DomainError that names q when it is
    beyond the float range."""
    try:
        return float(q)
    except OverflowError:
        raise DomainError(f"{q} is beyond the float range") from None


class SymplecticPotential:
    """Evaluators of g (Hess g, third derivatives, det Hess g) on the open
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
        """l_r(x) for every facet, one row per facet from one matmul: (R,)
        at a point x, (n,), and (R, N) at N points x, (N, n)."""
        l = self.A @ np.asarray(x).T
        l.T[...] += self.b              # in place: no second (R, N) array
        return l

    def is_interior(self, x):
        # an overflowing facet value keeps its sign, and nan is not positive
        with np.errstate(over="ignore", invalid="ignore"):
            return bool(np.all(self.facet_values(x) > 0))

    def _require_interior(self, x):
        """The facet values at x, which must be interior."""
        if not self.is_interior(x):
            raise PointError(f"point {np.asarray(x)} is not interior")
        return self.facet_values(x)

    # -- evaluators (at a point x, (n,), or at N points, (N, n)) ------------

    def hess(self, x):
        """Hess g at x."""
        l = self.facet_values(x)
        return 0.5 * np.einsum('r...,rj,rk->...jk', 1.0 / l, self.A, self.A)

    def det_terms(self, shift=None) -> "DetTerms":
        """The Cauchy-Binet terms of det(Hess g + diag(shift)); shift has one
        entry per axis (zeros if None).

        With d the shifted diagonal, c_T = 2^-|T| sum_C det(A[T, C])^2
        prod_{j not in C} d_j over the column sets C with |C| = |T|; a C
        whose complement holds an axis with d_j = 0 adds 0 and is skipped.
        Each c_T is the correctly rounded value of that exact sum; the
        subsets with c_T = 0 are dropped."""
        d = np.zeros(self.dim) if shift is None else np.asarray(
            shift, dtype=float)
        d, e = _dyadic(d.tolist())      # d_j = d[j] / 2^e
        zero = {j for j, dj in enumerate(d) if not dj}
        self._minors = self._minors or _squared_minors(self.A)
        e_A, table = self._minors
        subsets, coeffs = [], []
        for T, terms in table:
            k = len(T)
            c = sum(m2 * math.prod(map(d.__getitem__, J)) for J, m2 in terms
                    if zero.isdisjoint(J))
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
        with np.errstate(over="ignore"):    # l**2 = inf gives 1/l**2 = 0
            return -0.5 * np.einsum('r...,rj,rk,rl->...jkl',
                                    1.0 / l ** 2, self.A, self.A, self.A)

    def restrict(self, p: int, c) -> "SymplecticPotential":
        """y -> g(c, y) up to a constant, with facet data (A[:, p:],
        A[:, :p] c + b); a facet with zero trailing normal stays a constant."""
        c = np.asarray(c, dtype=float)
        return SymplecticPotential(self.A[:, p:], self.A[:, :p] @ c + self.b)


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
        # the subsets' and the complements' columns, on first use
        self._columns = self._rest = None

    def det(self, l, table, starts=None):
        """The determinant at each node of the facet values l, (R, N), for a
        (subsets, K) table of coefficients of K shifts over the same
        subsets (`coeffs[:, None]` for these terms alone): at the nodes from
        starts[j] to starts[j + 1] those of column j."""
        self._columns = self._columns or _columns(self.subsets, self.facets)
        return _subset_sum(l, np.reciprocal, self._columns, table, starts)

    def det_times_facet_product(self, l):
        """det * prod_r l_r = sum_T c_T prod_{r not in T} l_r at each node
        of the facet values l, (R, N), with no division."""
        self._rest = self._rest or _columns(
            [tuple(r for r in range(self.facets) if r not in T)
             for T in self.subsets], self.facets)
        return _subset_sum(l, np.positive, self._rest, self.coeffs[:, None])


def _columns(subsets, facets):
    """The subsets padded with the index `facets` of a row of ones to one
    width (at least 1), as that many index arrays: the j-th facet of
    every subset."""
    width = max([1] + [len(T) for T in subsets])
    index = np.array([T + (facets,) * (width - len(T)) for T in subsets],
                     dtype=np.intp).reshape(len(subsets), width)
    return tuple(np.ascontiguousarray(index.T))


# nodes per block of _subset_sum, which bounds its temporaries
_BLOCK = 2048


def _subset_sum(l, op, columns, table, starts=None):
    """sum_T c_T prod_{r in T} op(l_r) at the nodes of the facet values l,
    (R, N), for the subsets' facet `columns`, R meaning a factor 1, with c
    column j of the coefficient table from node starts[j] to starts[j + 1]
    (all nodes take column 0 if starts is None).  A block of nodes writes
    op(l) into a factor block whose last row is ones, gathers it once per
    column and folds the rows of terms in halves, so each node's sum has a
    fixed order and a batch gives the same bits as its nodes one by one."""
    R, N = l.shape
    out, starts = np.empty(N), (0, N) if starts is None else starts
    for a in range(0, N, _BLOCK):
        factors = np.empty((R + 1, min(_BLOCK, N - a)))
        op(l[:, a:a + _BLOCK], out=factors[:R])
        factors[R] = 1.0
        terms = factors[columns[0]]
        for j, (lo, hi) in enumerate(zip(starts[:-1], starts[1:])):
            if max(lo, a) < min(hi, a + _BLOCK):
                terms[:, max(lo - a, 0):hi - a] *= table[:, j:j + 1]
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
    l = pot._require_interior(x)[:, None]
    return float(1.0 / pot.det_terms().det_times_facet_product(l)[0])


def abreu_scalar_curvature(pot: SymplecticPotential, x):
    """Scalar curvature S = -1/2 sum_{jk} d^2 (G^-1)_{jk} / dx_j dx_k: 2/lam
    on the segment [0, lam], 2a/((a+1)(x1+x2)) on the weighted-C^3 family.

    With B = diag(l)^(-1/2) A, so that B^T B = 2G, the projection P onto
    the columns of B has P_rs = 1/2 a_r . G^-1 a_s / sqrt(l_r l_s), and
    S = 2 sum_r P_rr^2 (1 - P_rr) / l_r
        - sum_{r != s} P_rs (P_rs^2 + P_rr P_ss) / sqrt(l_r l_s).
    A complete QR of B with rows and columns sorted by decreasing norm is
    row-wise stable (Powell & Reid 1969; Cox & Higham 1998).  Q1, its first
    n columns, gives P_rr, the rest Q2 each 1 - P_rr, and P_rs is Q1_r . Q1_s
    or -Q2_r . Q2_s, whichever has the smaller rounding bound, so no term
    cancels near a facet or a simple vertex; the unit normals give the rank.
    """
    x, n = np.asarray(x, dtype=float), pot.dim
    a = np.hypot.reduce(pot.A, axis=1, initial=0)   # no overflow in |a_r|
    with finite("the scalar curvature at %s is not finite in floats", x):
        l = pot._require_interior(x)
        if np.linalg.matrix_rank(pot.A[a > 0] / a[a > 0, None]) < n:
            raise DomainError(f"the Hessian at {x} is singular in floats")
        w = 1 / np.sqrt(l)
        order = np.argsort(-a * w, kind="stable")
        l, w, B = l[order], w[order], pot.A[order] * w[order, None]
        B = B[:, np.argsort(-np.hypot.reduce(B, axis=0), kind="stable")]
        Q1, Q2 = np.hsplit(np.linalg.qr(B, mode="complete")[0], [n])
        p, c = np.sum(Q1 ** 2, axis=1), np.sum(Q2 ** 2, axis=1)
        P = np.where(np.outer(p, p) <= np.outer(c, c), Q1 @ Q1.T, -Q2 @ Q2.T)
        # r != s only: w_r^2 may overflow, and r = s is in the first sum
        ww = np.multiply.outer(w, w, where=~np.eye(len(w), dtype=bool),
                               out=np.zeros(P.shape))
        off = P * (P * P + np.outer(p, p)) * ww
        return float(2 * np.sum(p * p * c / l) - off.sum())
