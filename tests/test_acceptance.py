"""End-to-end acceptance checks; each test prints one PASS/FAIL line."""

import json
import math
import time

import numpy as np
import pytest

from exact_oracles import ConstantHessian, guillemin_gradient, guillemin_value
from toricq import geodesic, library, quantization, reduction
from toricq.cli import main
from toricq.potential import guillemin_potential, regularity_delta
from toricq.polytope import DelzantPolytope, FrameChange, apply_frame_change


def shipped_polytopes():
    return [library.corrected_segment(), library.corrected_square(),
            library.simplex(1), library.simplex(2)]


@pytest.fixture
def report(capsys, request):
    """Print a single pass/fail line for the criterion, visible in the run."""
    outcome = {"ok": False, "label": request.node.name}

    def setter(ok, label):
        outcome["ok"] = ok
        outcome["label"] = label

    yield setter
    with capsys.disabled():
        status = "PASS" if outcome["ok"] else "FAIL"
        print(f"\n[criterion] {outcome['label']}: {status}")


def test_criterion_1_segment_norm_limit(report):
    start = time.monotonic()
    poly = library.corrected_segment()
    grid = (10.0, 20.0, 40.0, 80.0)
    ok = True
    for m in ((0,), (1,)):
        values = [quantization.tilde_norm_squared(poly, 1, m, s,
                                                  tol=1e-9).value
                  for s in grid]
        extrap = quantization.richardson_extrapolate(grid, values)
        # pi^{p/2} c_m, with c_m in closed form for p = n
        c_m = quantization.limit_constant(poly, guillemin_potential(poly),
                                          1, m, tol=1e-10).value
        target = math.pi ** 0.5 * c_m
        ok &= abs(extrap - target) <= 0.02 * target
        ok &= abs(target - 2.3025) <= 0.02 * 2.3025
    elapsed = time.monotonic() - start
    ok &= elapsed < 10.0
    report(ok, "1 segment norm limit (2%, <10s)")
    assert ok


def test_criterion_2_square_mixed_norm_limit(report):
    start = time.monotonic()
    poly = library.corrected_square()
    grid = (10.0, 20.0, 40.0, 80.0)
    m = (0, 0)
    values = [quantization.tilde_norm_squared(poly, 1, m, s, tol=1e-5).value
              for s in grid]
    extrap = quantization.richardson_extrapolate(grid, values)
    c_m = quantization.limit_constant(poly, guillemin_potential(poly), 1, m,
                                      tol=1e-9).value
    target = math.pi ** 0.5 * c_m
    elapsed = time.monotonic() - start
    ok = abs(extrap - target) <= 0.02 * target and elapsed < 60.0
    report(ok, "2 square mixed norm limit (2%, <60s)")
    assert ok


def test_criterion_3_schur_algebra(report):
    rng = np.random.default_rng(13)
    ok = True
    count = 0
    while count < 100:
        n = int(rng.integers(1, 5))
        M = rng.standard_normal((n, n))
        G = M @ M.T + n * np.eye(n)
        count += 1
        for p in range(1, n + 1):
            ray = geodesic.MabuchiRay(ConstantHessian(G), p, np.zeros(n))
            for s in (0.0, 1.0, 10.0, 100.0):
                T = np.diag([1.0] * p + [0.0] * (n - p))
                direct = np.linalg.inv(G + s * T)
                err = np.max(np.abs(ray.limit + ray.delta(s) - direct))
                ok &= err <= 1e-10
    ray = geodesic.MabuchiRay(
        ConstantHessian(np.array([[2.0, 1.0], [1.0, 2.0]])), 1, np.zeros(2))
    e10 = np.linalg.norm(ray.delta(10.0))
    e20 = np.linalg.norm(ray.delta(20.0))
    ok &= 0.4 <= e20 / e10 <= 0.6
    report(ok, "3 Schur inverse 1e-10 + limit error halving")
    assert ok


def test_criterion_4_scalar_curvature(report):
    s2 = reduction.c3_reduction(2, 0)
    s1 = reduction.c3_reduction(1, 0)
    checks = [
        (reduction.reduced_scalar_curvature(s2, [1.0, 1.0]), 2.0 / 3.0),
        (reduction.reduced_scalar_curvature(s2, [2.0, 2.0]), 1.0 / 3.0),
        (reduction.reduced_scalar_curvature(s1, [1.0, 1.0]), 0.5),
    ]
    ok = all(abs(val - ref) <= 1e-6 for val, ref in checks)
    report(ok, "4 reduced scalar curvature 2/3, 1/3, 1/2 (1e-6)")
    assert ok


def test_criterion_5_polarization_convergence(report):
    ok = True
    for poly in shipped_polytopes():
        base = guillemin_potential(poly)
        x = np.array([float(c) for c in poly.barycenter])
        ray = geodesic.MabuchiRay(base, 1, x)
        limit = geodesic.polarization_frame_limit(ray)
        dists = [geodesic.grassmann_distance(
            geodesic.polarization_frame_s(ray, float(s)), limit)
            for s in (1, 2, 4, 8, 16, 32, 64, 128, 256)]
        ok &= all(a > b for a, b in zip(dists, dists[1:]))
        ok &= dists[-1] < 1e-2
    report(ok, "5 principal angles decrease, < 1e-2 at s = 256")
    assert ok


def _random_sl2(rng):
    B = np.eye(2, dtype=int)
    for _ in range(int(rng.integers(1, 5))):
        k = int(rng.integers(-3, 4))
        shear = np.array([[1, k], [0, 1]]) if rng.integers(2) \
            else np.array([[1, 0], [k, 1]])
        B = B @ shear
    return tuple(tuple(int(v) for v in row) for row in B)


def fibre_dims(poly):
    """Sizes of the non-empty lattice fibres over x1, read off the rows of
    the level report."""
    rows, _, _ = reduction.reduction_level_report(poly, 1)
    return [r["dim"] for r in rows if r["dim"]]


def test_criterion_6_dimension_bookkeeping(report):
    dims = fibre_dims(library.simplex(2))
    ok = dims == [3, 2, 1] and sum(dims) == 6
    rng = np.random.default_rng(21)
    for _ in range(20):
        if rng.integers(2):
            a, b = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            poly = DelzantPolytope.from_data(
                2, [((1, 0), 0), ((0, 1), 0), ((-1, 0), a), ((0, -1), b)])
        else:
            poly = library.simplex(int(rng.integers(1, 5)))
        total = len(poly.lattice_points())
        moved = apply_frame_change(poly, FrameChange(B=_random_sl2(rng)))
        dims_m = fibre_dims(moved)
        ok &= sum(dims_m) == total
    report(ok, "6 level dimensions (3,2,1) and SL(2,Z) invariance")
    assert ok


def test_criterion_7_potential_calculus(report):
    ok = True
    rng = np.random.default_rng(17)

    def fd_grad(fun, x, h=1e-6):
        out = np.zeros_like(x)
        for j in range(len(x)):
            e = np.zeros_like(x)
            e[j] = h
            out[j] = (fun(x + e) - fun(x - e)) / (2 * h)
        return out

    for poly in shipped_polytopes():
        pot = guillemin_potential(poly)
        lo, hi = poly.bounding_box()
        lo = np.array([float(c) for c in lo])
        hi = np.array([float(c) for c in hi])
        count = 0
        while count < 50:
            x = lo + rng.random(poly.dim) * (hi - lo)
            if not np.all(pot.facet_values(x) > 0.05):
                continue
            count += 1
            grad = guillemin_gradient(pot, x)
            fd = fd_grad(lambda z: guillemin_value(pot, z), x)
            ok &= bool(np.max(np.abs(grad - fd)) <= 1e-7)
            for j in range(poly.dim):
                col = fd_grad(lambda z: guillemin_gradient(pot, z)[j], x)
                ok &= bool(np.max(np.abs(pot.hess(x)[j] - col)) <= 1e-6)
    for lam in (1.0, 3.0):
        pot = guillemin_potential(library.segment(0, lam))
        ok &= abs(regularity_delta(pot, np.array([0.4 * lam]))
                  - 2.0 / lam) <= 1e-12
    report(ok, "7 potential calculus bundle (FD, delta)")
    assert ok


def test_criterion_8_connection_form_limit(report):
    poly = library.corrected_square()
    base = guillemin_potential(poly)
    ok = True
    rng = np.random.default_rng(19)
    for p in (1, 2):
        count = 0
        while count < 10:
            x = -0.5 + 2.0 * rng.random(2)
            if not np.all(base.facet_values(x) > 0.05):
                continue
            count += 1
            ray = geodesic.MabuchiRay(base, p, x)
            limit = geodesic.connection_form_limit(ray)
            ok &= all(limit[k] == -1j * x[k] for k in range(p))
            g10 = np.linalg.norm(geodesic.connection_form_s(ray, 10.0)[1])
            g100 = np.linalg.norm(geodesic.connection_form_s(ray, 100.0)[1])
            ok &= g100 <= g10 / 5.0
    report(ok, "8 connection gap factor >= 5 and exact -i x coefficients")
    assert ok


def test_criterion_9_cli_determinism(report, tmp_path):
    poly_path = tmp_path / "segment.json"
    poly_path.write_text(json.dumps({"dim": 1, "facets": [
        {"normal": [1], "offset": "1/2"},
        {"normal": [-1], "offset": "3/2"}]}))
    square_path = tmp_path / "square.json"
    square_path.write_text(json.dumps({"dim": 2, "facets": [
        {"normal": [1, 0], "offset": "1/2"},
        {"normal": [0, 1], "offset": "1/2"},
        {"normal": [-1, 0], "offset": "3/2"},
        {"normal": [0, -1], "offset": "3/2"}]}))
    ok = True
    for cmd, path in (("norms", poly_path), ("flow", square_path)):
        outputs = []
        for run in (1, 2):
            out = tmp_path / f"{cmd}{run}.csv"
            code = main(["--input", str(path), "--command", cmd,
                         "--p", "1", "--s-grid", "1,10,100",
                         "--out", str(out)])
            ok &= code == 0
            outputs.append(out.read_bytes())
        ok &= outputs[0] == outputs[1]
    report(ok, "9 cmd_norms / cmd_flow bit-identical reruns")
    assert ok
