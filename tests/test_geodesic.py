import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from exact_oracles import ConstantHessian, as_fractions
from toricq import library
from toricq.geodesic import (
    MabuchiRay,
    _orth,
    connection_form_limit,
    connection_form_s,
    grassmann_distance,
    polarization_frame_limit,
    polarization_frame_s,
)
from toricq.polytope import DelzantPolytope
from toricq.potential import (DomainError, SymplecticPotential,
                              guillemin_potential)
from toricq.quantization import hamiltonian_value


def square_ray(x, p=1):
    return MabuchiRay(guillemin_potential(library.corrected_square()), p, x)


def segment_ray(x):
    return MabuchiRay(guillemin_potential(library.corrected_segment()), 1, x)


def stub_ray(G, p):
    return MabuchiRay(ConstantHessian(G), p, np.zeros(len(G)))


def projector(Q):
    return Q @ Q.conj().T


def span_projector(rows):
    """Orthogonal projector onto the conjugate span of the rows, the span
    that a frame's basis holds; scipy.linalg.orth is the oracle."""
    return projector(scipy.linalg.orth(np.asarray(rows).conj().T))


def frame_is_lagrangian(Q, tol=1e-10):
    """omega(v, w) = 0 for all basis vectors, omega = sum dx_j ^ dtheta_j;
    the conjugate of a Lagrangian span is Lagrangian, as omega is real."""
    n = Q.shape[0] // 2
    omega = np.zeros((2 * n, 2 * n))
    omega[:n, n:] = np.eye(n)
    omega[n:, :n] = -np.eye(n)
    vals = Q.T @ omega @ Q
    return bool(np.max(np.abs(vals)) <= tol)


class TestRayPotential:
    def test_p_range(self):
        with pytest.raises(ValueError):
            square_ray(np.zeros(2), p=3)

    def test_hamiltonian(self):
        assert hamiltonian_value(np.array([1.0, 2.0]), 2) == pytest.approx(2.5)
        assert hamiltonian_value(np.array([1.0, 2.0]), 1) == pytest.approx(0.5)

    def test_hamiltonian_batch(self):
        x = np.array([[1.0, 2.0], [-3.0, 0.5], [0.0, 4.0]])
        h = hamiltonian_value(x, 1)
        assert h.shape == (3,)
        assert np.array_equal(h, [0.5, 4.5, 0.0])
        assert np.array_equal(hamiltonian_value(x, 2), [2.5, 4.625, 8.0])


class TestSchurInverse:
    G_REF = np.array([[2.0, 1.0], [1.0, 2.0]])

    def test_reference_values(self):
        inv = stub_ray(self.G_REF, 1).inverse_hessian(100.0)
        assert inv[0, 0] == pytest.approx(2.0 / 203.0, abs=1e-15)
        assert inv[1, 1] == pytest.approx(102.0 / 203.0, abs=1e-15)

    def test_matches_direct_inverse_random(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            p = int(rng.integers(1, n + 1))
            M = rng.standard_normal((n, n))
            G = M @ M.T + n * np.eye(n)
            s = float(rng.uniform(0.0, 50.0))
            direct = np.linalg.inv(G + np.diag([s] * p + [0.0] * (n - p)))
            assert np.max(np.abs(stub_ray(G, p).inverse_hessian(s) - direct)) \
                <= 1e-10

    def test_limit_block(self):
        lim = stub_ray(self.G_REF, 1).inverse_hessian()
        assert np.allclose(lim, [[0.0, 0.0], [0.0, 0.5]])

    def test_limit_error_halves(self):
        ray = stub_ray(self.G_REF, 1)
        lim = ray.inverse_hessian()
        e10 = np.max(np.abs(ray.inverse_hessian(10.0) - lim))
        e20 = np.max(np.abs(ray.inverse_hessian(20.0) - lim))
        assert 0.4 <= e20 / e10 <= 0.6

    def test_p_equals_n(self):
        ray = stub_ray(self.G_REF, 2)
        inv = ray.inverse_hessian(1.0)
        assert np.allclose(inv, np.linalg.inv(self.G_REF + np.eye(2)))
        assert np.array_equal(ray.inverse_hessian(), np.zeros((2, 2)))

    def test_schur_complement_value(self):
        # with p = 1 the leading entry of the inverse is 1 / S_s
        inv = stub_ray(self.G_REF, 1).inverse_hessian(100.0)
        assert 1.0 / inv[0, 0] == pytest.approx(101.5)

    def test_bad_blocks_rejected(self):
        with pytest.raises(DomainError, match="symmetric"):
            stub_ray(np.array([[1.0, 2.0], [0.0, 1.0]]), 1)
        with pytest.raises(DomainError, match="positive-definite"):
            stub_ray(np.array([[1.0, 0.0], [0.0, -1.0]]), 1)

    def test_indefinite_hessian_rejected(self):
        # symmetric with a positive-definite trailing block D, but G itself
        # is indefinite, so G + sT would be singular at s = 1
        with pytest.raises(DomainError, match="positive-definite"):
            stub_ray(np.array([[-1.0, 0.0], [0.0, 1.0]]), 1)

    def test_negative_s_rejected(self):
        # at s = -3/2 the Schur complement of G_REF is exactly 0
        with pytest.raises(ValueError, match="nonnegative"):
            stub_ray(self.G_REF, 1).inverse_hessian(-1.5)

    def test_det_growth(self):
        ray = stub_ray(self.G_REF, 1)
        ratios = []
        for s in (10.0, 100.0, 1000.0):
            # det(G + sT) / (s^p det D) tends to 1 as s grows
            full = np.linalg.det(self.G_REF + np.diag([s, 0.0]))
            ratios.append(full / (s * np.linalg.det(ray.d)))
        assert abs(ratios[-1] - 1.0) <= 1e-2
        assert abs(ratios[-1] - 1.0) < abs(ratios[0] - 1.0)

    def test_third_derivatives_not_finite_rejected(self):
        # on the quadrant at x1 = 1e-300, 1/x1^2 overflows to inf, and the
        # third derivatives hold inf and nan; no RuntimeWarning escapes
        quadrant = SymplecticPotential(np.eye(2), np.zeros(2))
        with pytest.raises(DomainError, match="not finite"):
            MabuchiRay(quadrant, 1, np.array([1e-300, 1.0]))

    def test_hessian_that_overflows_in_einsum_rejected(self):
        # the corrected square under the shear x2 -> x2 + 10^200 x1: each
        # 1/l_r a_r a_r^T overflows inside np.einsum, which sets no float
        # status, so Hess g holds inf although no numpy error is raised
        sheared = SymplecticPotential(
            [[1, 0], [-1e200, 1], [-1, 0], [1e200, -1]], [0.5, 0.5, 1.5, 1.5])
        with pytest.raises(DomainError,
                           match="derivatives of g .* not finite in floats"):
            MabuchiRay(sheared, 1, np.array([0.5, 5e199]))


class TestFrames:
    def test_frame_s_shape_and_content(self):
        x = np.array([0.5, 0.5])
        ray = square_ray(x)
        frame = polarization_frame_s(ray, 2.0)
        # G_s: Hess g_0 plus s on the first p = 1 diagonal entries
        G = guillemin_potential(library.corrected_square()).hess(x) \
            + np.diag([2.0, 0.0])
        assert np.allclose(ray.inverse_hessian(2.0), np.linalg.inv(G),
                           rtol=1e-14, atol=0.0)
        assert frame.shape == (4, 2)
        assert np.allclose(projector(frame), span_projector(
            np.hstack([np.linalg.inv(G), 1j * np.eye(2)])), atol=1e-12)

    def test_limit_frame_reference(self):
        # G = [[2,1],[1,2]], p=1: rows i*e_theta1 and (1/2)e_x2 + i e_theta2
        frame = polarization_frame_limit(stub_ray([[2.0, 1.0], [1.0, 2.0]], 1))
        expect = np.array([[0, 0, 1j, 0], [0, 0.5, 0, 1j]], dtype=complex)
        assert np.allclose(projector(frame), span_projector(expect))

    def test_frames_lagrangian(self):
        rng = np.random.default_rng(11)
        for poly in (library.corrected_segment(), library.corrected_square(),
                     library.simplex(1), library.simplex(2)):
            base = guillemin_potential(poly)
            for p in range(1, poly.dim + 1):
                count = 0
                lo, hi = poly.bounding_box()
                lo = np.array([float(c) for c in lo])
                hi = np.array([float(c) for c in hi])
                while count < 5:
                    x = lo + rng.random(poly.dim) * (hi - lo)
                    if not np.all(base.facet_values(x) > 0.05):
                        continue
                    count += 1
                    ray = MabuchiRay(base, p, x)
                    for frame in (polarization_frame_s(ray, 3.0),
                                  polarization_frame_limit(ray)):
                        assert frame_is_lagrangian(frame)

    def test_grassmann_small_angle(self):
        eps = 1e-3
        f1 = _orth(np.array([[1.0], [0.0]], dtype=complex))
        f2 = _orth(np.array([[1.0], [eps]], dtype=complex))
        assert grassmann_distance(f1, f2) == pytest.approx(eps, rel=1e-5)
        assert grassmann_distance(f1, f1) <= 1e-8

    def test_frame_converges_to_limit(self):
        ray = square_ray(np.array([0.3, 0.6]))
        limit = polarization_frame_limit(ray)
        dists = [grassmann_distance(polarization_frame_s(ray, s), limit)
                 for s in (1.0, 4.0, 16.0, 64.0, 256.0)]
        assert all(a > b for a, b in zip(dists, dists[1:]))
        assert dists[-1] < 1e-2

    def test_rank_deficient_frame_rejected(self):
        # on the quadrant at (1e300, 1e300), G^(-1) = 2e300 I drowns i I:
        # the limit frame keeps one of its two directions
        quadrant = SymplecticPotential(np.eye(2), np.zeros(2))
        ray = MabuchiRay(quadrant, 1, np.array([1e300, 1e300]))
        limit = polarization_frame_limit(ray)
        assert limit.shape == (4, 1)
        with pytest.raises(DomainError, match="rank-deficient"):
            grassmann_distance(polarization_frame_s(ray, 1.0), limit)


def scipy_distance(rows1, rows2):
    """grassmann_distance of the frames with these generator rows, with
    scipy.linalg.orth as the oracle basis."""
    Q1 = scipy.linalg.orth(rows1.conj().T)
    Q2 = scipy.linalg.orth(rows2.conj().T)
    sigma = np.linalg.svd(Q1.conj().T @ Q2, compute_uv=False)
    return float(np.arccos(np.clip(sigma, -1.0, 1.0).min()))


def corrected_box(n):
    return DelzantPolytope.from_data(
        n, [(tuple(int(i == j) * sign for j in range(n)),
             "1/2" if sign > 0 else "3/2")
            for i in range(n) for sign in (1, -1)])


def complex_matrices(rows, cols):
    return arrays(np.complex128, (rows, cols), elements=st.complex_numbers(
        max_magnitude=1.0, allow_nan=False, allow_infinity=False))


class TestOrth:
    """The numpy basis must span what scipy.linalg.orth spans."""

    def check(self, A):
        Q, ref = _orth(A), scipy.linalg.orth(A)
        assert Q.shape == ref.shape
        assert np.allclose(Q @ Q.conj().T, ref @ ref.conj().T,
                           rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_random_frames(self, n):
        rng = np.random.default_rng(n)
        for _ in range(20):
            self.check(rng.standard_normal((2 * n, n))
                       + 1j * rng.standard_normal((2 * n, n)))

    @pytest.mark.parametrize("n, rank", [(2, 1), (3, 1), (3, 2), (4, 2),
                                         (4, 3), (3, 0)])
    def test_rank_deficient(self, n, rank):
        rng = np.random.default_rng(10 * n + rank)
        B = rng.standard_normal((2 * n, rank)) + 1j * rng.standard_normal(
            (2 * n, rank))
        C = rng.standard_normal((rank, n)) + 1j * rng.standard_normal(
            (rank, n))
        A = B @ C
        assert _orth(A).shape[1] == rank
        self.check(A)

    @pytest.mark.parametrize("poly", [
        library.corrected_segment(), library.corrected_square(),
        library.simplex(1), corrected_box(3)],
        ids=["segment", "square", "simplex", "box3"])
    def test_distance_matches_scipy(self, poly):
        rng = np.random.default_rng(poly.dim)
        verts = np.array([[float(c) for c in v]
                          for v in as_fractions(poly.vertices)])
        base = guillemin_potential(poly)
        iI = 1j * np.eye(poly.dim)
        for p in range(1, poly.dim + 1):
            # positive weights on every vertex give an interior point
            for x in rng.dirichlet(np.ones(len(verts)), size=3) @ verts:
                ray = MabuchiRay(base, p, x)
                limit = polarization_frame_limit(ray)
                limit_rows = np.hstack([ray.inverse_hessian(), iI])
                for s in (1.0, 10.0, 100.0):
                    frame = polarization_frame_s(ray, s)
                    rows = np.hstack([ray.inverse_hessian(s), iI])
                    assert grassmann_distance(frame, limit) == pytest.approx(
                        scipy_distance(rows, limit_rows), rel=0.0, abs=1e-12)

    @settings(max_examples=100, derandomize=True, deadline=None,
              database=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(
        complex_matrices(n, n), complex_matrices(n, n),
        complex_matrices(n, n))))
    def test_distance_depends_only_on_the_spans(self, mats):
        # frames [A | i I] have full rank; A + 2n I is diagonally dominant,
        # hence invertible and well conditioned, and combines the rows of
        # a frame into another frame of the same span
        A1, A2, M = mats
        n = len(A1)
        rows1, rows2 = (np.hstack([A, 1j * np.eye(n)]) for A in (A1, A2))
        f2 = _orth(rows2.conj().T)
        d = grassmann_distance(_orth(rows1.conj().T), f2)
        # arccos is ill conditioned near zero angle
        assume(d > 1e-3)
        moved = _orth(((M + 2 * n * np.eye(n)) @ rows1).conj().T)
        assert grassmann_distance(moved, f2) == pytest.approx(
            d, rel=0.0, abs=1e-9)


class TestConnectionForm:
    def test_1d_closed_form(self):
        # on [0, lam] at s=0: coeff = -i x + (i/4)(-1/x + 1/(lam-x)) * 2x(lam-x)/lam
        lam = 3.0
        base = guillemin_potential(library.segment(0, 3))
        for x in (0.4, 1.5, 2.2):
            theta = connection_form_s(MabuchiRay(base, 1, np.array([x])), 0.0)
            u = -1.0 / x + 1.0 / (lam - x)
            ginv = 2.0 * x * (lam - x) / lam
            expect = -1j * x + 0.25j * u * ginv
            assert theta[0] == pytest.approx(expect, abs=1e-14)

    def test_limit_first_p_exact(self):
        theta = connection_form_limit(square_ray(np.array([0.35, 0.8])))
        assert theta[0] == -1j * 0.35

    def test_limit_trailing_closed_form(self):
        # diagonal base Hessian: trailing coefficient is
        # -i x2 + (i/4) (d_2 log D) / D with D = G_22
        x = np.array([0.35, 0.8])
        base = guillemin_potential(library.corrected_square())
        D = base.hess(x)[1, 1]
        T = base.third(x)
        expect = -1j * x[1] + 0.25j * (T[1, 1, 1] / D) / D
        theta = connection_form_limit(square_ray(x))
        assert theta[1] == pytest.approx(expect, abs=1e-14)

    def test_gap_shrinks(self):
        for ray in (segment_ray(np.array([0.45])),
                    square_ray(np.array([0.45, 0.45]), p=1),
                    square_ray(np.array([0.45, 0.45]), p=2)):
            limit = connection_form_limit(ray)
            gaps = [np.linalg.norm(connection_form_s(ray, s) - limit)
                    for s in (10.0, 100.0)]
            assert gaps[1] < gaps[0] / 5.0

    def test_exterior_point_rejected(self):
        with pytest.raises(DomainError):
            segment_ray(np.array([5.0]))


def test_import_loads_potential_only():
    # geodesic needs the potential's Hessian and third derivatives and
    # nothing of polytopes, quadrature or quantization
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import sys, toricq.geodesic; print(sorted(m for m in sys.modules"
            " if m.startswith('toricq.')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120, check=True)
    assert proc.stdout.strip() == "['toricq.geodesic', 'toricq.potential']"
