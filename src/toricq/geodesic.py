"""Mabuchi geodesic rays g_s = g_0 + s H and their infinite-time limits.

H = 1/2 sum_{j<=p} x_j^2 deforms only the leading p x p block of
G = Hess g_0 = [[A, B], [B^T, D]], so G_s^(-1) = L + Delta(s) is its
s -> oo limit L = diag(0, D^(-1)) plus the rank-p term
Delta(s) = K^T (S_0 + sI)^(-1) K of order 1/s, with K = [I_p, -B D^(-1)]
and S_0 = A - B D^(-1) B^T.  A `MabuchiRay` is the ray at one interior
point: it holds L, K, S_0 and the third derivatives, which frames and
connection forms share for every s and the limit; what vanishes as
s -> oo is taken from Delta, never as a difference of O(1) terms.  A
polarization frame, the span of the rows [X | i I] with X = L + Delta in
the coordinates (x^1..x^n, theta^1..theta^n), is held as (X, Delta, C)
with C C^T = I + X^2: [X; -i I] C^(-T) is an orthonormal basis of its
conjugate, and the limit frame has Delta = 0.
"""

from __future__ import annotations

import numpy as np

from .potential import DomainError, SymplecticPotential, finite


class MabuchiRay:
    """The ray of a base potential with p convex directions at the interior
    point x, with `limit`, `k` and `s0` the L, K and S_0 there.  Hess g_0(x)
    must be symmetric positive-definite; then so are D and S_0 + sI."""

    def __init__(self, base: SymplecticPotential, p: int, x):
        if not 1 <= p <= base.dim:
            raise ValueError("p must satisfy 1 <= p <= n")
        self.p, self.x = p, np.asarray(x, dtype=float)
        # s H is quadratic, so g_s has the third derivatives of g_0
        with finite("the derivatives of g at %s are not finite in floats",
                    self.x):
            base._require_interior(self.x)
            G, self.third = base.hess(self.x), base.third(self.x)
            # np.einsum sets no float status: its overflow is checked here
            if not (np.isfinite(G).all() and np.isfinite(self.third).all()):
                raise FloatingPointError
        if not np.allclose(G, G.T, atol=1e-10):
            raise DomainError(f"the Hessian at {self.x} is not symmetric")
        with finite("the Hessian at %s is not positive-definite in floats",
                    self.x):
            np.linalg.cholesky(G)
            B, self.limit = G[:p, p:], np.zeros_like(G)
            self.limit[p:, p:] = np.linalg.inv(G[p:, p:])
            # LAPACK's inverse sets no float status: a subnormal D's
            # overflowing inverse is checked here
            if not np.isfinite(self.limit).all():
                raise FloatingPointError
            self.k = np.hstack([np.eye(p), -B @ self.limit[p:, p:]])
            self.s0 = G[:p, :p] + self.k[:, p:] @ B.T

    def delta(self, s):
        """Delta(s) = K^T (S_0 + sI)^(-1) K, the rank-p term by which
        G_s^(-1) exceeds its limit L, with one p x p inverse."""
        if s < 0:
            raise ValueError("geodesic parameter s must be nonnegative")
        return self.k.T @ np.linalg.inv(
            self.s0 + s * np.eye(self.p)) @ self.k


# ---------------------------------------------------------------------------
# polarization frames


def _frame(ray: MabuchiRay, delta):
    X = ray.limit + delta
    # I + X^2 >= I: a frame has full rank unless X^2 overflows
    with finite("the polarization frame at %s is not finite in floats",
                ray.x):
        return X, delta, np.linalg.cholesky(np.eye(len(X)) + X @ X)


def polarization_frame_s(ray: MabuchiRay, s: float):
    """The frame of the rows [G_s^(-1) | i I], the antiholomorphic
    directions of the s-deformed complex structure."""
    return _frame(ray, ray.delta(s))


def polarization_frame_limit(ray: MabuchiRay):
    """The limit frame, rows [diag(0, D^(-1)) | i I]: p vertical directions
    plus n-p holomorphic directions built from the trailing Hessian block."""
    return _frame(ray, np.zeros_like(ray.limit))


def grassmann_distance(F1, F2) -> float:
    """Largest principal angle between the frames F1 and F2 (Bjorck &
    Golub 1973).  With the bases Q_j = [X_j; -i I] C_j^(-T) and the basis
    [I; i X_2] C_2^(-T) of the second span's complement, its sine is the
    largest singular value of C_2^(-1) (Delta_1 - Delta_2) C_1^(-T) and its
    cosine the smallest of Q_2^H Q_1 = C_2^(-1) (I + X_2 X_1) C_1^(-T)."""
    (X1, delta1, C1), (X2, delta2, C2) = F1, F2
    M = np.stack([delta1 - delta2, np.eye(len(X1)) + X2 @ X1])
    M = np.linalg.solve(C2, np.linalg.solve(C1, M.transpose(0, 2, 1))
                        .transpose(0, 2, 1))
    sine, cosine = np.linalg.svd(M, compute_uv=False)
    return float(np.arctan2(sine.max(), cosine.min()))


# ---------------------------------------------------------------------------
# connection forms


def connection_form_s(ray: MabuchiRay, s: float):
    """Theta_0^s = -i x . dtheta + (i/4)(d log det G_s) . G_s^(-1) dtheta,
    as (the limit's dtheta coefficients, their increment).  With u = T : L
    and du = T : Delta, the increment is (i/4)(u Delta + du L + du Delta)."""
    L, delta = ray.limit, ray.delta(s)
    u, du = np.einsum('jkl,mkl->mj', ray.third, [L, delta])
    return connection_form_limit(ray), 0.25j * (u @ delta + du @ L
                                                 + du @ delta)


def connection_form_limit(ray: MabuchiRay):
    """The dtheta coefficients of the s -> oo limit, the same formula with
    L = diag(0, D^(-1)) in place of G_s^(-1): the first p are exactly
    -i x_k; the rest pick up (i/4) sum_{j>p} (d_j log det D) D^(-1) terms."""
    u = np.einsum('jkl,kl->j', ray.third, ray.limit)
    return -1j * ray.x + 0.25j * (u @ ray.limit)
