import csv
import io
import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from exact_oracles import ConstantHessian, as_fractions
from toricq import library
from toricq.cli import main
from toricq.geodesic import (
    MabuchiRay,
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


def inverse(ray, s):
    return ray.limit + ray.delta(s)


def basis(frame):
    """The orthonormal basis [X; -i I] C^(-T) of a frame (X, Delta, C)."""
    X, _, C = frame
    return np.vstack([X, -1j * np.eye(len(X))]) @ np.linalg.inv(C).T


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
        inv = inverse(stub_ray(self.G_REF, 1), 100.0)
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
            assert np.max(np.abs(inverse(stub_ray(G, p), s) - direct)) \
                <= 1e-10

    def test_limit_block(self):
        lim = stub_ray(self.G_REF, 1).limit
        assert np.allclose(lim, [[0.0, 0.0], [0.0, 0.5]])

    def test_limit_error_halves(self):
        ray = stub_ray(self.G_REF, 1)
        e10 = np.max(np.abs(ray.delta(10.0)))
        e20 = np.max(np.abs(ray.delta(20.0)))
        assert 0.4 <= e20 / e10 <= 0.6

    def test_p_equals_n(self):
        ray = stub_ray(self.G_REF, 2)
        inv = inverse(ray, 1.0)
        assert np.allclose(inv, np.linalg.inv(self.G_REF + np.eye(2)))
        assert np.array_equal(ray.limit, np.zeros((2, 2)))

    def test_schur_complement_value(self):
        # with p = 1 the leading entry of the inverse is 1 / S_s
        inv = inverse(stub_ray(self.G_REF, 1), 100.0)
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
            stub_ray(self.G_REF, 1).delta(-1.5)

    def test_det_growth(self):
        ratios = []
        for s in (10.0, 100.0, 1000.0):
            # det(G + sT) / (s^p det D) tends to 1 as s grows
            full = np.linalg.det(self.G_REF + np.diag([s, 0.0]))
            ratios.append(full / (s * np.linalg.det(self.G_REF[1:, 1:])))
        assert abs(ratios[-1] - 1.0) <= 1e-2
        assert abs(ratios[-1] - 1.0) < abs(ratios[0] - 1.0)

    @pytest.mark.parametrize("s", [0.0, 1.0, 1e3, 1e6, 1e9, 1e12])
    def test_blocks_match_a_50_digit_inverse_at_large_s(self, s):
        # the leading and mixed blocks are O(1/s) and the trailing one O(1):
        # each must be accurate relative to its own size
        rng = np.random.default_rng(11)
        for n in range(1, 5):
            for p in range(1, n + 1):
                for _ in range(4):
                    M = rng.standard_normal((n, n))
                    G = M @ M.T + n * np.eye(n)
                    inv = inverse(stub_ray(G, p), s)
                    with mpmath.workdps(50):
                        Gs = mpmath.matrix(G.tolist())
                        for j in range(p):
                            Gs[j, j] += s
                        exact = np.array((Gs ** -1).tolist(), dtype=float)
                    for rows in (slice(None, p), slice(p, None)):
                        for cols in (slice(None, p), slice(p, None)):
                            block = exact[rows, cols]
                            if block.size:
                                err = np.abs(inv[rows, cols] - block).max()
                                assert err <= 1e-13 * np.abs(block).max()

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
        X, delta, C = frame = polarization_frame_s(ray, 2.0)
        # G_s: Hess g_0 plus s on the first p = 1 diagonal entries
        G = guillemin_potential(library.corrected_square()).hess(x) \
            + np.diag([2.0, 0.0])
        assert np.allclose(X, np.linalg.inv(G), rtol=1e-14, atol=0.0)
        assert np.array_equal(delta, ray.delta(2.0))
        assert np.allclose(C @ C.T, np.eye(2) + X @ X, rtol=1e-14, atol=0.0)
        assert basis(frame).shape == (4, 2)
        assert np.allclose(projector(basis(frame)), span_projector(
            np.hstack([np.linalg.inv(G), 1j * np.eye(2)])), atol=1e-12)

    def test_limit_frame_reference(self):
        # G = [[2,1],[1,2]], p=1: rows i*e_theta1 and (1/2)e_x2 + i e_theta2
        frame = polarization_frame_limit(stub_ray([[2.0, 1.0], [1.0, 2.0]], 1))
        assert not frame[1].any()
        expect = np.array([[0, 0, 1j, 0], [0, 0.5, 0, 1j]], dtype=complex)
        assert np.allclose(projector(basis(frame)), span_projector(expect))

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
                        assert frame_is_lagrangian(basis(frame))

    def test_grassmann_small_angle(self):
        # n = p = 1: the limit frame is X = 0, and at s = 0 it is X = eps
        eps = 1e-3
        ray = stub_ray([[1.0 / eps]], 1)
        f1, f2 = polarization_frame_limit(ray), polarization_frame_s(ray, 0.0)
        assert grassmann_distance(f1, f2) == pytest.approx(
            np.arctan(eps), rel=1e-15)
        assert grassmann_distance(f1, f1) == 0.0

    def test_frame_converges_to_limit(self):
        ray = square_ray(np.array([0.3, 0.6]))
        limit = polarization_frame_limit(ray)
        dists = [grassmann_distance(polarization_frame_s(ray, s), limit)
                 for s in (1.0, 4.0, 16.0, 64.0, 256.0)]
        assert all(a > b for a, b in zip(dists, dists[1:]))
        assert dists[-1] < 1e-2

    def test_frame_whose_square_overflows_rejected(self):
        # on the quadrant at (1e300, 1e300), G^(-1) = 2e300 I, and the
        # X^2 of I + X^2 overflows
        quadrant = SymplecticPotential(np.eye(2), np.zeros(2))
        ray = MabuchiRay(quadrant, 1, np.array([1e300, 1e300]))
        with pytest.raises(DomainError, match="frame .* not finite"):
            polarization_frame_limit(ray)


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


def spd(rng, n):
    M = rng.standard_normal((n, n))
    return M @ M.T + n * np.eye(n)


def limit_inverse(G, p):
    """diag(0, D^(-1)), straight from the trailing block of G."""
    L = np.zeros_like(G)
    L[p:, p:] = np.linalg.inv(G[p:, p:])
    return L


def complex_matrices(rows, cols):
    return arrays(np.complex128, (rows, cols), elements=st.complex_numbers(
        max_magnitude=1.0, allow_nan=False, allow_infinity=False))


def real_matrices(rows, cols):
    return arrays(np.float64, (rows, cols), elements=st.floats(
        -1.0, 1.0, allow_nan=False, allow_infinity=False))


def frame_rows(X):
    return np.hstack([X, 1j * np.eye(len(X))])


class TestOrth:
    """Each frame's basis [X; -i I] C^(-T) must be orthonormal and span
    what scipy.linalg.orth spans of the frame's rows [X | i I]."""

    def check(self, frame, rows):
        Q, ref = basis(frame), scipy.linalg.orth(rows.conj().T)
        assert Q.shape == ref.shape
        assert np.allclose(Q.conj().T @ Q, np.eye(Q.shape[1]),
                           rtol=0.0, atol=1e-12)
        assert np.allclose(Q @ Q.conj().T, ref @ ref.conj().T,
                           rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_random_frames(self, n):
        rng = np.random.default_rng(n)
        for _ in range(20):
            G, p = spd(rng, n), int(rng.integers(1, n + 1))
            s = float(rng.uniform(0.0, 50.0))
            direct = np.linalg.inv(G + np.diag([s] * p + [0.0] * (n - p)))
            self.check(polarization_frame_s(stub_ray(G, p), s),
                       frame_rows(direct))

    @pytest.mark.parametrize("n, rank", [(2, 1), (3, 1), (3, 2), (4, 2),
                                         (4, 3), (3, 0)])
    def test_rank_deficient(self, n, rank):
        # the limit X = diag(0, D^(-1)) has rank n - p, yet I + X^2 >= I:
        # the frame has full rank n by construction
        G, p = spd(np.random.default_rng(10 * n + rank), n), n - rank
        frame = polarization_frame_limit(stub_ray(G, p))
        assert np.linalg.matrix_rank(frame[0]) == rank
        self.check(frame, frame_rows(limit_inverse(G, p)))

    @pytest.mark.parametrize("poly", [
        library.corrected_segment(), library.corrected_square(),
        library.simplex(1), corrected_box(3)],
        ids=["segment", "square", "simplex", "box3"])
    def test_distance_matches_scipy(self, poly):
        rng = np.random.default_rng(poly.dim)
        verts = np.array([[float(c) for c in v]
                          for v in as_fractions(poly.vertices)])
        base = guillemin_potential(poly)
        n = poly.dim
        for p in range(1, n + 1):
            # positive weights on every vertex give an interior point
            for x in rng.dirichlet(np.ones(len(verts)), size=3) @ verts:
                ray = MabuchiRay(base, p, x)
                limit = polarization_frame_limit(ray)
                G = base.hess(x)
                limit_rows = frame_rows(limit_inverse(G, p))
                for s in (1.0, 10.0, 100.0):
                    rows = frame_rows(np.linalg.inv(
                        G + np.diag([s] * p + [0.0] * (n - p))))
                    assert grassmann_distance(
                        polarization_frame_s(ray, s), limit) == pytest.approx(
                        scipy_distance(rows, limit_rows), rel=0.0, abs=1e-12)

    @settings(max_examples=100, derandomize=True, deadline=None,
              database=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(
        real_matrices(n, n), real_matrices(n, n), complex_matrices(n, n))))
    def test_distance_depends_only_on_the_spans(self, mats):
        # with p = n the limit is 0, so a frame at s = 0 is X = G^(-1) for
        # any symmetric positive-definite G; M + 2n I is diagonally
        # dominant, hence invertible and well conditioned, and combines
        # the rows of a frame into another set of rows of the same span
        A1, A2, M = mats
        n = len(A1)
        G1, G2 = (A @ A.T + np.eye(n) for A in (A1, A2))
        f1, f2 = (polarization_frame_s(stub_ray(G, n), 0.0) for G in (G1, G2))
        d = grassmann_distance(f1, f2)
        assert grassmann_distance(f2, f1) == pytest.approx(d, rel=1e-14)
        rows1, rows2 = (frame_rows(np.linalg.inv(G)) for G in (G1, G2))
        moved = (M + 2 * n * np.eye(n)) @ rows1
        # scipy's arccos is ill conditioned near zero angle
        assume(d > 1e-3)
        assert scipy_distance(moved, rows2) == pytest.approx(
            d, rel=0.0, abs=1e-9)


class TestConnectionForm:
    def test_1d_closed_form(self):
        # on [0, lam] at s=0: coeff = -i x + (i/4)(-1/x + 1/(lam-x)) * 2x(lam-x)/lam
        lam = 3.0
        base = guillemin_potential(library.segment(0, 3))
        for x in (0.4, 1.5, 2.2):
            limit, increment = connection_form_s(
                MabuchiRay(base, 1, np.array([x])), 0.0)
            u = -1.0 / x + 1.0 / (lam - x)
            ginv = 2.0 * x * (lam - x) / lam
            expect = -1j * x + 0.25j * u * ginv
            assert limit[0] == -1j * x
            assert (limit + increment)[0] == pytest.approx(expect, abs=1e-14)

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

    def test_form_s_is_the_limit_plus_an_imaginary_increment(self):
        rng = np.random.default_rng(5)
        base = guillemin_potential(library.simplex(2))
        for p in (1, 2):
            x = rng.dirichlet(np.ones(3)) @ [[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]]
            ray = MabuchiRay(base, p, x)
            limit, increment = connection_form_s(ray, 7.0)
            assert np.array_equal(limit, connection_form_limit(ray))
            assert not increment.real.any()

    def test_gap_shrinks(self):
        for ray in (segment_ray(np.array([0.45])),
                    square_ray(np.array([0.45, 0.45]), p=1),
                    square_ray(np.array([0.45, 0.45]), p=2)):
            gaps = [np.linalg.norm(connection_form_s(ray, s)[1])
                    for s in (10.0, 100.0)]
            assert gaps[1] < gaps[0] / 5.0

    def test_exterior_point_rejected(self):
        with pytest.raises(DomainError):
            segment_ray(np.array([5.0]))


# the corrected segment, square, triangle, 3-box and 3-simplex: facets
# (normal, offset) with the offsets shifted by 1/2, and two interior points
FLOW_SHAPES = {
    "segment": ([((1,), "1/2"), ((-1,), "3/2")], ["0.3", "1.1"]),
    "square": ([((1, 0), "1/2"), ((0, 1), "1/2"), ((-1, 0), "3/2"),
                ((0, -1), "3/2")], ["0.3,0.6", "1.2,-0.1"]),
    "triangle": ([((1, 0), "1/2"), ((0, 1), "1/2"), ((-1, -1), "3/2")],
                 ["0.2,0.4", "-0.3,1.1"]),
    "box3": ([(tuple(sign * int(i == j) for j in range(3)),
               "1/2" if sign > 0 else "3/2")
              for i in range(3) for sign in (1, -1)],
             ["0.3,0.6,-0.2", "1.1,0.1,0.7"]),
    "simplex3": ([((1, 0, 0), "1/2"), ((0, 1, 0), "1/2"), ((0, 0, 1), "1/2"),
                  ((-1, -1, -1), "3/2")], ["0.1,0.2,0.3", "-0.4,0.9,-0.2"]),
}
FLOW_GRID = [0.0] + [10.0 ** k for k in range(13)]


def flow_oracle(facets, p, x, s):
    """(frame_distance, connection_gap) of `flow` at 60 digits: the largest
    principal angle as the arccos of the smallest cosine, through the
    symmetric inverse square roots of I + X^2, and the gap as the
    difference of the two connection forms, G_s^(-1) and L inverted apart."""
    mp = mpmath.mp
    with mpmath.workdps(60):
        x = [mp.mpf(v) for v in x]
        n = len(x)
        G, T = mp.zeros(n, n), [[[0] * n for _ in x] for _ in x]
        for normal, offset in facets:
            l = mp.fsum(a * v for a, v in zip(normal, x)) \
                + mp.mpf(Fraction(offset).numerator) / Fraction(offset).denominator
            for j, k, m in itertools.product(range(n), repeat=3):
                T[j][k][m] -= normal[j] * normal[k] * normal[m] / (2 * l ** 2)
                if m == 0:
                    G[j, k] += normal[j] * normal[k] / (2 * l)
        L = mp.zeros(n, n)
        if p < n:
            L[p:n, p:n] = G[p:n, p:n] ** -1
        for j in range(p):
            G[j, j] += s
        X = G ** -1

        def inv_sqrt(M):
            E, Q = mp.eigsy(M)
            return Q * mp.diag([1 / mp.sqrt(e) for e in E]) * Q.T

        def form(Ginv):
            u = [mp.fsum(T[j][k][m] * Ginv[k, m]
                         for k in range(n) for m in range(n)) for j in range(n)]
            return mp.matrix([u]) * Ginv

        I = mp.eye(n)
        cosines = mp.svd_r(inv_sqrt(I + X * X) * (I + X * L)
                           * inv_sqrt(I + L * L), compute_uv=False)
        dist = mp.acos(min(min(cosines), mp.one))
        return float(dist), float(mp.norm(form(X) - form(L)) / 4)


@pytest.mark.parametrize("shape", FLOW_SHAPES)
def test_flow_rows_match_a_60_digit_oracle(tmp_path, capsys, shape):
    facets, points = FLOW_SHAPES[shape]
    path = tmp_path / "poly.json"
    path.write_text(json.dumps({"dim": len(facets[0][0]), "facets": [
        {"normal": list(a), "offset": b} for a, b in facets]}))
    for point in points:
        x = [float(v) for v in point.split(",")]
        for p in range(1, len(x) + 1):
            code = main(["--input", str(path), "--command", "flow", "--p",
                         str(p), f"--point={point}", "--s-grid",
                         ",".join(map(repr, FLOW_GRID))])
            rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))[1:]
            assert code == 0 and len(rows) == len(FLOW_GRID)
            for s, row in zip(FLOW_GRID, rows):
                dist, gap = flow_oracle(facets, p, x, s)
                assert float(row[2]) == pytest.approx(dist, rel=1e-12, abs=0)
                assert float(row[3]) == pytest.approx(gap, rel=1e-12, abs=0)


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
