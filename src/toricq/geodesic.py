"""Mabuchi geodesic rays g_s = g_0 + s H and their infinite-time limits.

H = 1/2 sum_{j<=p} x_j^2 deforms only the leading p x p Hessian block, so the
deformed inverse Hessian has a Schur-complement closed form whose s -> oo
limit is block-diagonal in the trailing (n-p) x (n-p) block D.  Frames and
connection forms take G_s^(-1) and its limit from the blocks of the base
Hessian, which a ray evaluates once per point for every s.  Polarization
frames are generator matrices of complex n-dimensional subspaces of C^(2n)
in the coordinate order (d/dx^1..d/dx^n, d/dtheta^1..d/dtheta^n) and are
only ever compared through principal angles.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

import numpy as np

from .potential import SymplecticPotential


class BlockError(ValueError):
    """Invalid Hessian block structure."""


class MabuchiRay:
    """Base symplectic potential plus the number p of convex directions."""

    def __init__(self, base: SymplecticPotential, p: int):
        if not 1 <= p <= base.dim:
            raise ValueError("p must satisfy 1 <= p <= n")
        self.base, self.p, self._points = base, p, {}


class HessianBlocks(NamedTuple):
    """Blocks [[a1, a2], [a2^T, d]] of a symmetric positive-definite Hessian
    split after the first p rows."""

    a1: np.ndarray
    a2: np.ndarray
    d: np.ndarray
    p: int

    @property
    def n(self):
        return self.p + self.d.shape[0]


def hessian_blocks(G, p: int) -> HessianBlocks:
    """Split a symmetric matrix after the first p rows.  G must be
    positive-definite; then so are G + sT and its Schur complement S_s for
    every s >= 0."""
    G = np.asarray(G, dtype=float)
    n = G.shape[0]
    if not 1 <= p <= n:
        raise BlockError("p out of range")
    if not np.allclose(G, G.T, atol=1e-10):
        raise BlockError("Hessian must be symmetric")
    try:
        np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        raise BlockError("Hessian is not positive-definite")
    return HessianBlocks(a1=G[:p, :p], a2=G[:p, p:], d=G[p:, p:], p=p)


def schur_complement(blocks: HessianBlocks, s: float):
    p = blocks.p
    if p == blocks.n:
        return blocks.a1 + s * np.eye(p)
    return blocks.a1 + s * np.eye(p) - blocks.a2 @ np.linalg.solve(
        blocks.d, blocks.a2.T)


def inverse_hessian_s(blocks: HessianBlocks, s: float):
    """Inverse of G + sT by the block Schur-complement formula."""
    if s < 0:
        raise ValueError("geodesic parameter s must be nonnegative")
    n, p = blocks.n, blocks.p
    Sinv = np.linalg.inv(schur_complement(blocks, s))
    if p == n:
        return Sinv
    dinv = np.linalg.inv(blocks.d)
    out = np.zeros((n, n))
    out[:p, :p] = Sinv
    out[:p, p:] = -Sinv @ blocks.a2 @ dinv
    out[p:, :p] = -dinv @ blocks.a2.T @ Sinv
    out[p:, p:] = dinv + dinv @ blocks.a2.T @ Sinv @ blocks.a2 @ dinv
    return out


def inverse_hessian_limit(blocks: HessianBlocks):
    """lim_{s->oo} (G + sT)^(-1) = diag(0, D^(-1))."""
    n, p = blocks.n, blocks.p
    out = np.zeros((n, n))
    if p < n:
        out[p:, p:] = np.linalg.inv(blocks.d)
    return out


# ---------------------------------------------------------------------------
# polarization frames


class PolarizationFrame:
    """n generators (rows) of a complex subspace of the complexified tangent
    space, coordinates ordered (x directions, theta directions)."""

    def __init__(self, basepoint, vectors):
        self.basepoint, self.vectors = basepoint, vectors  # (n, 2n) complex

    @property
    def n(self):
        return self.vectors.shape[0]

    @cached_property
    def basis(self):
        """Orthonormal columns spanning the subspace."""
        return _orth(self.vectors.conj().T)


def _inverse_hessian(ray: MabuchiRay, x, s):
    """(x, G_s^(-1), third derivatives of g) at the interior point x, for
    s None the limit diag(0, D^(-1)); the interior check, Schur blocks and
    third derivatives are evaluated once per ray and point."""
    key = np.asarray(x, dtype=float).tobytes()
    if key not in ray._points:
        ray.base._require_interior(x)
        x = np.asarray(x, dtype=float)
        ray._points[key] = (x, hessian_blocks(ray.base.hess(x), ray.p),
                            ray.base.third(x))
    x, blocks, third = ray._points[key]
    if s is None:
        return x, inverse_hessian_limit(blocks), third
    return x, inverse_hessian_s(blocks, s), third


def _frame(ray: MabuchiRay, x, s) -> PolarizationFrame:
    x, Ginv, _ = _inverse_hessian(ray, x, s)
    return PolarizationFrame(basepoint=x,
                             vectors=np.hstack([Ginv, 1j * np.eye(len(x))]))


def polarization_frame_s(ray: MabuchiRay, x, s: float) -> PolarizationFrame:
    """Frame rows [G_s^(-1) | i I], spanning the antiholomorphic directions
    of the s-deformed complex structure."""
    return _frame(ray, x, s)


def polarization_frame_limit(ray: MabuchiRay, x) -> PolarizationFrame:
    """Limit frame [diag(0, D^(-1)) | i I]: p vertical directions plus n-p
    holomorphic directions built from the trailing Hessian block."""
    return _frame(ray, x, None)


def _orth(A):
    """Orthonormal basis of the column space of A, as scipy.linalg.orth
    defines it: the left singular vectors whose singular values exceed
    max(sv) * eps * max(A.shape)."""
    u, sv, _ = np.linalg.svd(A, full_matrices=False)
    tol = sv.max(initial=0.0) * np.finfo(sv.dtype).eps * max(A.shape)
    return u[:, sv > tol]


def grassmann_distance(f1: PolarizationFrame, f2: PolarizationFrame) -> float:
    """Largest principal angle between the spanned complex subspaces."""
    if f1.vectors.shape != f2.vectors.shape:
        raise ValueError("frames live in different ambient spaces")
    if not np.allclose(f1.basepoint, f2.basepoint, atol=1e-12):
        raise ValueError("frames have different basepoints")
    Q1, Q2 = f1.basis, f2.basis
    if Q1.shape[1] < f1.n or Q2.shape[1] < f2.n:
        raise ValueError("rank-deficient frame")
    sigma = np.linalg.svd(Q1.conj().T @ Q2, compute_uv=False)
    sigma = np.clip(sigma, -1.0, 1.0)
    return float(np.arccos(sigma.min()))


# ---------------------------------------------------------------------------
# connection forms


class ConnectionFormValue(NamedTuple):
    """Theta = sum_k coeffs[k] dtheta^k at the basepoint."""

    basepoint: np.ndarray
    coeffs: np.ndarray  # (n,) complex


def _connection_form(ray: MabuchiRay, x, s) -> ConnectionFormValue:
    # s H is quadratic, so g_s has the third derivatives of g_0
    x, Ginv, third = _inverse_hessian(ray, x, s)
    u = np.einsum('jkl,kl->j', third, Ginv)
    return ConnectionFormValue(basepoint=x,
                               coeffs=-1j * x + 0.25j * (u @ Ginv))


def connection_form_s(ray: MabuchiRay, x, s: float) -> ConnectionFormValue:
    """Theta_0^s = -i x . dtheta + (i/4)(d log det G_s) . G_s^(-1) dtheta."""
    return _connection_form(ray, x, s)


def connection_form_limit(ray: MabuchiRay, x) -> ConnectionFormValue:
    """s -> oo limit, the same formula with diag(0, D^(-1)) in place of
    G_s^(-1): the first p coefficients are exactly -i x_k; the rest pick up
    (i/4) sum_{j>p} (d_j log det D) D^(-1) terms."""
    return _connection_form(ray, x, None)


def connection_form_gap(a: ConnectionFormValue, b: ConnectionFormValue) -> float:
    return float(np.linalg.norm(a.coeffs - b.coeffs))
