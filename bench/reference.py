"""Reference values that do not use toricq.

Norm integrals
    The integrand of `norms` is written out from its definition in
    toricq/quantization.py:

        exp(-s |x_{<=p} - m_{<=p}|^2) * prod_r l_r(x)^{l_r(m)} e^{l_r(m) - l_r(x)}
            * sqrt(det(Hess g(x) + s I_p)),   Hess g = 1/2 sum_r nu_r nu_r^T / l_r,

    and c_m is the same density times sqrt(det D) over the slice
    x_{<=p} = m_{<=p}, with D the trailing Hessian block.  On a box the
    Hessian is diagonal and both factor into 1-D integrals, done by mpmath
    `quad`.  Other polygons use iterated mpmath quadrature in the double
    precision context, split at vertices and at the Gaussian centre.  For
    p = n the limit is the closed form prod_r l_r(m)^{l_r(m)}.  All of them
    are translation invariant, so they are tabled per untranslated shape
    in refs.json; `python3 bench/reference.py` rebuilds that table.

Flow and curvature
    Computed in mpmath at 30 digits from the facet data: principal angles
    between the frames [A | iI] in closed form, d log det by numerical
    differentiation, and Abreu's S = -1/2 sum_jk d_j d_k (G^-1)_jk by
    numerical differentiation of the inverse Hessian.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import mpmath

HERE = Path(__file__).resolve().parent
TABLE = HERE / "refs.json"


# ---------------------------------------------------------------------------
# norm integrals


def _mpf(v):
    v = Fraction(v)
    return mpmath.mpf(v.numerator) / v.denominator


def _facet_terms(facets, m):
    """(normal, offset, l(m)) with float data."""
    return [(tuple(float(c) for c in nu), float(lam),
             float(sum(c * x for c, x in zip(nu, m)) + lam))
            for nu, lam in facets]


def _is_box(facets):
    return all(sum(1 for c in nu if c) == 1 for nu, _ in facets)


def _box_axis(facets, j):
    """Lower and upper offsets of axis j of a box: lo <= x_j <= hi."""
    lo = max(-lam for nu, lam in facets if nu[j] > 0)
    hi = min(lam for nu, lam in facets if nu[j] < 0)
    return lo, hi


def _axis_integral(lo, hi, mj, s, gauss):
    """1-D factor of a box integral: the density of the two facets of
    this axis times sqrt(G_jj + s), with the Gaussian when gauss."""
    mp = mpmath.mp
    lo, hi, mj = _mpf(lo), _mpf(hi), _mpf(mj)
    a, b = mj - lo, hi - mj

    def f(x):
        l1, l2 = x - lo, hi - x
        if l1 <= 0 or l2 <= 0:
            return mp.zero
        dens = mp.exp(a * mp.log(l1) + b * mp.log(l2) + a - l1 + b - l2)
        G = (1 / l1 + 1 / l2) / 2
        if not gauss:
            return dens * mp.sqrt(G)
        return mp.exp(-s * (x - mj) ** 2) * dens * mp.sqrt(G + s)

    pts = [lo, mj, hi] if gauss and lo < mj < hi else [lo, hi]
    return mp.quad(f, pts)


def _box_value(facets, p, m, s):
    """tilde norm (s > 0) or c_m (s is None) on a box."""
    n = len(m)
    with mpmath.workdps(20):
        total = mpmath.mpf(1)
        for j in range(n):
            lo, hi = _box_axis(facets, j)
            if s is None and j < p:
                a, b = _mpf(m[j] - lo), _mpf(hi - m[j])
                total *= a ** a * b ** b
            else:
                total *= _axis_integral(lo, hi, m[j], s or 0, j < p)
        return float(total)


def _polygon_vertices(facets):
    out = set()
    for i in range(len(facets)):
        for k in range(i + 1, len(facets)):
            (a, lam_a), (b, lam_b) = facets[i], facets[k]
            det = Fraction(a[0] * b[1] - a[1] * b[0])
            if det == 0:
                continue
            x = (-lam_a * b[1] + lam_b * a[1]) / det
            y = (-a[0] * lam_b + b[0] * lam_a) / det
            if all(nu[0] * x + nu[1] * y + lam >= 0 for nu, lam in facets):
                out.add((x, y))
    return sorted(out)


def _polygon_value(facets, p, m, s):
    """tilde norm (s > 0) or c_m for p = 1 (s is None) on a polygon."""
    fp = mpmath.fp
    terms = _facet_terms(facets, m)
    m = [float(c) for c in m]

    def f(x, y, s):
        l = [nu[0] * x + nu[1] * y + lam for nu, lam, _ in terms]
        if min(l) <= 0:
            return 0.0
        dens = math.exp(sum(lm * math.log(lr) + lm - lr
                            for (_, _, lm), lr in zip(terms, l)))
        G = [[sum(nu[j] * nu[k] / (2 * lr) for (nu, _, _), lr in zip(terms, l))
              for k in range(2)] for j in range(2)]
        if s is None:
            return dens * math.sqrt(G[1][1])
        for j in range(p):
            G[j][j] += s
        gauss = math.exp(-s * sum((v - c) ** 2
                                  for v, c in zip((x, y)[:p], m[:p])))
        return gauss * dens * math.sqrt(G[0][0] * G[1][1] - G[0][1] ** 2)

    def inner(x, s):
        """Integral over the chord of the polygon at this x."""
        lo = max(-(nu[0] * x + lam) / nu[1] for nu, lam, _ in terms if nu[1] > 0)
        hi = min((nu[0] * x + lam) / -nu[1] for nu, lam, _ in terms if nu[1] < 0)
        if hi <= lo:
            return 0.0
        pts = [lo, hi]
        if p == 2 and s is not None and lo < m[1] < hi:
            pts = [lo, m[1], hi]
        return fp.quad(lambda y: f(x, y, s), pts)

    if s is None:
        return inner(m[0], None)
    xs = sorted({float(v[0]) for v in _polygon_vertices(facets)} | {m[0]})
    return fp.quad(lambda x: inner(x, s), xs)


def norm_value(facets, p, m, s):
    """Reference tilde norm at s, or c_m when s is None."""
    n = len(m)
    if s is None and p == n:
        return math.prod(float(lm) ** float(lm) for lm in
                         (sum(c * x for c, x in zip(nu, m)) + lam
                          for nu, lam in facets))
    if _is_box(facets):
        return _box_value(facets, p, m, s)
    if n == 2:
        return _polygon_value(facets, p, m, s)
    raise ValueError("no norm reference for this shape")


def norm_key(shape, p, canon, s):
    return f"{shape.key}|p={p}|m={list(canon)}|s={'c' if s is None else f'{s:g}'}"


class References:
    """Norm references from the checked-in table; a key missing there is
    computed and kept for the rest of the run."""

    def __init__(self, table=TABLE):
        self.table = json.loads(table.read_text())

    def norm(self, shape, p, canon, s):
        key = norm_key(shape, p, canon, s)
        if key not in self.table:
            self.table[key] = norm_value(shape.canonical_facets(), p, canon, s)
        return self.table[key]


# ---------------------------------------------------------------------------
# flow and curvature at 30 digits


def _hess(facets, x, s=0, p=0):
    mp = mpmath.mp
    n = len(x)
    G = mp.zeros(n, n)
    for nu, lam in facets:
        l = mp.fsum(c * v for c, v in zip(nu, x)) + _mpf(lam)
        for j in range(n):
            for k in range(n):
                G[j, k] += mp.mpf(nu[j] * nu[k]) / (2 * l)
    for j in range(p):
        G[j, j] += s
    return G


def _inv_sqrt(M):
    mp = mpmath.mp
    E, Q = mp.eigsy(M)
    D = mp.diag([1 / mp.sqrt(e) for e in E])
    return Q * D * Q.T


def _grad_logdet(facets, x, s, p, lo=0):
    """d_j log det of the block [lo:, lo:] of Hess g + s I_p, all j."""
    mp = mpmath.mp
    n = len(x)

    def logdet(*z):
        G = _hess(facets, z, s, p)
        return mp.log(mp.det(G[lo:n, lo:n]))

    return [mp.diff(logdet, x, tuple(int(i == j) for i in range(n)))
            for j in range(n)]


def flow_value(facets, p, x, s):
    """(frame_distance, connection_gap) printed by `flow` at time s."""
    mp = mpmath.mp
    with mpmath.workdps(30):
        x = [mp.mpf(v) for v in x]
        n = len(x)
        A = _hess(facets, x, s, p) ** -1
        B = mp.zeros(n, n)
        w = mp.zeros(1, n)
        if p < n:
            D = _hess(facets, x)[p:n, p:n]
            Dinv = D ** -1
            u = _grad_logdet(facets, x, 0, 0, lo=p)
            for a in range(n - p):
                for b in range(n - p):
                    B[p + a, p + b] = Dinv[a, b]
                    w[0, p + b] += u[p + a] * Dinv[a, b]
        I = mp.eye(n)
        M = _inv_sqrt(I + A * A) * (I + A * B) * _inv_sqrt(I + B * B)
        sigma = mp.svd_r(M, compute_uv=False)
        dist = mp.acos(min([sigma[i] for i in range(n)] + [mp.one]))
        u = _grad_logdet(facets, x, s, p)
        v = mp.matrix([u]) * A - w
        gap = mp.norm(v) / 4
        return float(dist), float(gap)


def curvature_value(facets, x):
    """Abreu scalar curvature -1/2 sum_jk d_j d_k (G^-1)_jk."""
    mp = mpmath.mp
    with mpmath.workdps(30):
        x = [mp.mpf(v) for v in x]
        n = len(x)
        total = mp.zero
        for j in range(n):
            for k in range(j, n):
                order = [0] * n
                order[j] += 1
                order[k] += 1
                d = mp.diff(lambda *z: (_hess(facets, z) ** -1)[j, k], x,
                            tuple(order))
                total += d if j == k else 2 * d
        return float(-total / 2)


def c3_curvature(alpha, x):
    """Closed form 2a/((a+1)(x1+x2)) for the weighted-C^3 reduction."""
    return 2 * alpha / ((alpha + 1) * (x[0] + x[1]))


# ---------------------------------------------------------------------------


def rebuild_table():
    """Recompute every norm reference any seed can ask for."""
    from workloads import norms_cases

    table = {}
    for shape, p, grid in norms_cases():
        for m in shape.points():
            for s in [None] + [float(v) for v in grid.split(",")]:
                key = norm_key(shape, p, m, s)
                if key not in table:
                    table[key] = norm_value(shape.canonical_facets(), p, m, s)
        print(f"{shape.key} p={p}: {len(table)} entries", file=sys.stderr)
    TABLE.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    rebuild_table()
