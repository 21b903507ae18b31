"""Mabuchi geodesic rays g_s = g_0 + s H and their infinite-time limits.

H = 1/2 sum_{j<=p} x_j^2 deforms only the leading p x p block of
G = Hess g_0 = [[A, B], [B^T, D]], so G_s^(-1) = L + K^T (S_0 + sI)^(-1) K
is its s -> oo limit L = diag(0, D^(-1)) plus a rank-p term of order 1/s,
with K = [I_p, -B D^(-1)] and S_0 = A - B D^(-1) B^T.  A `MabuchiRay` is the
ray at one interior point: it holds L, K, S_0 and the third derivatives,
which frames and connection forms share for every s and the limit.  A
polarization frame is an orthonormal basis of a complex n-dimensional
subspace of C^(2n), in the coordinate order (d/dx^1..d/dx^n,
d/dtheta^1..d/dtheta^n), and frames are only ever compared through
principal angles.
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

    def inverse_hessian(self, s=None):
        """(G + sT)^(-1) = L + K^T (S_0 + sI)^(-1) K; for s None its
        s -> oo limit L = diag(0, D^(-1))."""
        if s is None:
            return self.limit
        if s < 0:
            raise ValueError("geodesic parameter s must be nonnegative")
        return self.limit + self.k.T @ np.linalg.inv(
            self.s0 + s * np.eye(self.p)) @ self.k


# ---------------------------------------------------------------------------
# polarization frames


def _orth(A):
    """Orthonormal basis of the column space of A, as scipy.linalg.orth
    defines it: the left singular vectors whose singular values exceed
    max(sv) * eps * max(A.shape)."""
    u, sv, _ = np.linalg.svd(A, full_matrices=False)
    tol = sv.max(initial=0.0) * np.finfo(sv.dtype).eps * max(A.shape)
    return u[:, sv > tol]


def _frame(ray: MabuchiRay, s):
    Ginv = ray.inverse_hessian(s)
    return _orth(np.hstack([Ginv, 1j * np.eye(len(Ginv))]).conj().T)


def polarization_frame_s(ray: MabuchiRay, s: float):
    """Orthonormal basis of the span of the rows [G_s^(-1) | i I], the
    antiholomorphic directions of the s-deformed complex structure."""
    return _frame(ray, s)


def polarization_frame_limit(ray: MabuchiRay):
    """The limit frame, rows [diag(0, D^(-1)) | i I]: p vertical directions
    plus n-p holomorphic directions built from the trailing Hessian block."""
    return _frame(ray, None)


def grassmann_distance(Q1, Q2) -> float:
    """Largest principal angle between the complex n-dimensional subspaces
    of C^(2n) with the orthonormal bases Q1 and Q2."""
    if any(2 * Q.shape[1] < Q.shape[0] for Q in (Q1, Q2)):
        raise DomainError("a polarization frame is rank-deficient in floats")
    sigma = np.linalg.svd(Q1.conj().T @ Q2, compute_uv=False)
    sigma = np.clip(sigma, -1.0, 1.0)
    return float(np.arccos(sigma.min()))


# ---------------------------------------------------------------------------
# connection forms


def _connection_form(ray: MabuchiRay, s):
    """Coefficients c of Theta = sum_k c[k] dtheta^k at the ray's point."""
    Ginv = ray.inverse_hessian(s)
    u = np.einsum('jkl,kl->j', ray.third, Ginv)
    return -1j * ray.x + 0.25j * (u @ Ginv)


def connection_form_s(ray: MabuchiRay, s: float):
    """Theta_0^s = -i x . dtheta + (i/4)(d log det G_s) . G_s^(-1) dtheta."""
    return _connection_form(ray, s)


def connection_form_limit(ray: MabuchiRay):
    """s -> oo limit, the same formula with diag(0, D^(-1)) in place of
    G_s^(-1): the first p coefficients are exactly -i x_k; the rest pick up
    (i/4) sum_{j>p} (d_j log det D) D^(-1) terms."""
    return _connection_form(ray, None)
