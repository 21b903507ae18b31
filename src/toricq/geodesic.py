"""Mabuchi geodesic rays g_s = g_0 + s H and their infinite-time limits.

H = 1/2 sum_{j<=p} x_j^2 deforms only the leading p x p Hessian block, so the
deformed inverse Hessian has a Schur-complement closed form whose s -> oo
limit is block-diagonal in the trailing (n-p) x (n-p) block D.  A
`MabuchiRay` is the ray at one interior point: it holds the blocks of the
base Hessian and the third derivatives there, which frames and connection
forms share for every s and the limit.  A polarization frame is an
orthonormal basis of a complex n-dimensional subspace of C^(2n), in the
coordinate order (d/dx^1..d/dx^n, d/dtheta^1..d/dtheta^n), and frames are
only ever compared through principal angles.
"""

from __future__ import annotations

import numpy as np

from .potential import DomainError, SymplecticPotential, finite


class MabuchiRay:
    """The ray of a base potential with p convex directions at the interior
    point x.  Hess g_0(x) must be symmetric positive-definite; then so are
    G + sT and its Schur complement S_s for every s >= 0."""

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
        self.a1, self.a2, self.d = G[:p, :p], G[:p, p:], G[p:, p:]
        self.dinv = np.linalg.inv(self.d)

    def inverse_hessian(self, s=None):
        """(G + sT)^(-1) by the block Schur-complement formula; for s None
        its s -> oo limit diag(0, D^(-1))."""
        p, n = self.p, len(self.x)
        out = np.zeros((n, n))
        if s is None:
            out[p:, p:] = self.dinv
            return out
        if s < 0:
            raise ValueError("geodesic parameter s must be nonnegative")
        a2, dinv = self.a2, self.dinv
        Sinv = np.linalg.inv(self.a1 + s * np.eye(p)
                             - a2 @ np.linalg.solve(self.d, a2.T))
        out[:p, :p] = Sinv
        out[:p, p:] = -Sinv @ a2 @ dinv
        out[p:, :p] = -dinv @ a2.T @ Sinv
        out[p:, p:] = dinv + dinv @ a2.T @ Sinv @ a2 @ dinv
        return out


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
