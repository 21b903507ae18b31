"""Mabuchi geodesic rays g_s = g_0 + s H and their infinite-time limits.

H = 1/2 sum_{j<=p} x_j^2 deforms only the leading p x p Hessian block, so the
deformed inverse Hessian has a Schur-complement closed form whose s -> oo
limit is block-diagonal in the trailing (n-p) x (n-p) block D.  Polarization
frames are generator matrices of complex n-dimensional subspaces of
C^(2n) in the coordinate order (d/dx^1..d/dx^n, d/dtheta^1..d/dtheta^n) and
are only ever compared through principal angles.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .potential import QuadraticCorrection, SymplecticPotential
from .quantization import hamiltonian_value


class BlockError(ValueError):
    """Invalid Hessian block structure."""


@dataclass(frozen=True)
class MabuchiRay:
    """Base symplectic potential plus the number p of convex directions."""

    base: SymplecticPotential
    p: int

    def __post_init__(self):
        if not 1 <= self.p <= self.base.dim:
            raise ValueError("p must satisfy 1 <= p <= n")

    def hamiltonian(self, x):
        return hamiltonian_value(x, self.p)

    def potential(self, s: float) -> SymplecticPotential:
        """g_0 + s H: the base potential with s added to the quadratic
        correction on the first p axes."""
        if s < 0:
            raise ValueError("geodesic parameter s must be nonnegative")
        coeffs = [float(s) if j < self.p else 0.0 for j in range(self.base.dim)]
        if self.base.correction is not None:
            coeffs = [a + b for a, b in zip(self.base.correction.coeffs, coeffs)]
        pot = copy.copy(self.base)
        pot.correction = QuadraticCorrection(tuple(coeffs))
        return pot


@dataclass(frozen=True)
class HessianBlocks:
    """Blocks of a symmetric Hessian split after the first p rows."""

    a1: np.ndarray
    a2: np.ndarray
    a3: np.ndarray
    d: np.ndarray
    p: int

    @property
    def n(self):
        return self.p + self.d.shape[0]

    def assemble(self, s: float = 0.0):
        n, p = self.n, self.p
        G = np.zeros((n, n))
        G[:p, :p] = self.a1 + s * np.eye(p)
        G[:p, p:] = self.a2
        G[p:, :p] = self.a3
        G[p:, p:] = self.d
        return G


def hessian_blocks(G, p: int) -> HessianBlocks:
    """Split a symmetric matrix; the trailing block must be positive-definite."""
    G = np.asarray(G, dtype=float)
    n = G.shape[0]
    if not 1 <= p <= n:
        raise BlockError("p out of range")
    if not np.allclose(G, G.T, atol=1e-10):
        raise BlockError("Hessian must be symmetric")
    blocks = HessianBlocks(a1=G[:p, :p], a2=G[:p, p:], a3=G[p:, :p],
                           d=G[p:, p:], p=p)
    if p < n:
        try:
            np.linalg.cholesky(blocks.d)
        except np.linalg.LinAlgError:
            raise BlockError("trailing diagonal block is not positive-definite")
    return blocks


def schur_complement(blocks: HessianBlocks, s: float):
    p = blocks.p
    if p == blocks.n:
        return blocks.a1 + s * np.eye(p)
    dinv_a3 = np.linalg.solve(blocks.d, blocks.a3)
    return blocks.a1 + s * np.eye(p) - blocks.a2 @ dinv_a3


def inverse_hessian_s(blocks: HessianBlocks, s: float):
    """Inverse of G + sT by the block Schur-complement formula."""
    n, p = blocks.n, blocks.p
    S = schur_complement(blocks, s)
    cond = np.linalg.cond(S)
    if not np.isfinite(cond) or cond > 1e14:
        raise BlockError(f"Schur complement is singular (cond ~ {cond:.2e})")
    Sinv = np.linalg.inv(S)
    if p == n:
        return Sinv
    dinv = np.linalg.inv(blocks.d)
    out = np.zeros((n, n))
    out[:p, :p] = Sinv
    out[:p, p:] = -Sinv @ blocks.a2 @ dinv
    out[p:, :p] = -dinv @ blocks.a3 @ Sinv
    out[p:, p:] = dinv + dinv @ blocks.a3 @ Sinv @ blocks.a2 @ dinv
    return out


def inverse_hessian_limit(blocks: HessianBlocks):
    """lim_{s->oo} (G + sT)^(-1) = diag(0, D^(-1))."""
    n, p = blocks.n, blocks.p
    out = np.zeros((n, n))
    if p < n:
        out[p:, p:] = np.linalg.inv(blocks.d)
    return out


def det_growth_check(blocks: HessianBlocks, s: float):
    """(det(G + sT), s^p det D); the ratio tends to 1 as s grows."""
    if s <= 0:
        raise ValueError("need s > 0")
    det_full = float(np.linalg.det(blocks.assemble(s)))
    det_d = 1.0 if blocks.p == blocks.n else float(np.linalg.det(blocks.d))
    return det_full, s ** blocks.p * det_d


# ---------------------------------------------------------------------------
# polarization frames


@dataclass(frozen=True)
class PolarizationFrame:
    """n generators (rows) of a complex subspace of the complexified tangent
    space, coordinates ordered (x directions, theta directions)."""

    basepoint: np.ndarray
    vectors: np.ndarray  # (n, 2n) complex

    @property
    def n(self):
        return self.vectors.shape[0]


def _inverse_hessian(ray: MabuchiRay, x, s):
    """(potential, x, G_s^(-1)) at the interior point x; for s None the
    base potential and the s -> oo limit diag(0, D^(-1))."""
    pot = ray.base if s is None else ray.potential(s)
    pot._require_interior(x)
    x = np.asarray(x, dtype=float)
    G = pot.hess(x)
    if s is None:
        return pot, x, inverse_hessian_limit(hessian_blocks(G, ray.p))
    return pot, x, np.linalg.inv(G)


def _frame(ray: MabuchiRay, x, s) -> PolarizationFrame:
    _, x, Ginv = _inverse_hessian(ray, x, s)
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


def grassmann_distance(f1: PolarizationFrame, f2: PolarizationFrame) -> float:
    """Largest principal angle between the spanned complex subspaces."""
    if f1.vectors.shape != f2.vectors.shape:
        raise ValueError("frames live in different ambient spaces")
    if not np.allclose(f1.basepoint, f2.basepoint, atol=1e-12):
        raise ValueError("frames have different basepoints")
    Q1 = scipy.linalg.orth(f1.vectors.conj().T)
    Q2 = scipy.linalg.orth(f2.vectors.conj().T)
    if Q1.shape[1] < f1.n or Q2.shape[1] < f2.n:
        raise ValueError("rank-deficient frame")
    sigma = np.linalg.svd(Q1.conj().T @ Q2, compute_uv=False)
    sigma = np.clip(sigma, -1.0, 1.0)
    return float(np.arccos(sigma.min()))


def frame_is_lagrangian(frame: PolarizationFrame, tol=1e-10) -> bool:
    """omega(v, w) = 0 for all frame rows, omega = sum dx_j ^ dtheta_j."""
    n = frame.n
    omega = np.zeros((2 * n, 2 * n))
    omega[:n, n:] = np.eye(n)
    omega[n:, :n] = -np.eye(n)
    vals = frame.vectors @ omega @ frame.vectors.T
    return bool(np.max(np.abs(vals)) <= tol)


# ---------------------------------------------------------------------------
# connection forms


@dataclass(frozen=True)
class ConnectionFormValue:
    """Theta = sum_k coeffs[k] dtheta^k at the basepoint."""

    basepoint: np.ndarray
    coeffs: np.ndarray  # (n,) complex


def _connection_form(ray: MabuchiRay, x, s) -> ConnectionFormValue:
    pot, x, Ginv = _inverse_hessian(ray, x, s)
    u = np.einsum('jkl,kl->j', pot.third(x), Ginv)
    return ConnectionFormValue(basepoint=x,
                               coeffs=-1j * x + 0.25j * (u @ Ginv))


def connection_form_s(ray: MabuchiRay, x, s: float) -> ConnectionFormValue:
    """Theta_0^s = -i x . dtheta + (i/4)(d log det G_s) . G_s^(-1) dtheta."""
    return _connection_form(ray, x, s)


def connection_form_limit(ray: MabuchiRay, x) -> ConnectionFormValue:
    """s -> oo limit, the same formula with diag(0, D^(-1)) in place of
    G_s^(-1): the first p coefficients are exactly -i x_k; the rest pick up
    (i/4) sum_{j>p} (d_j log det D) D^(-1) corrections."""
    return _connection_form(ray, x, None)


def connection_form_gap(a: ConnectionFormValue, b: ConnectionFormValue) -> float:
    return float(np.linalg.norm(a.coeffs - b.coeffs))
