import csv
import io
import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricq import geodesic, polytope, potential, quadrature, quantization
from toricq.cli import build_parser, emit, fmt, main

SIMPLEX = {"dim": 2, "facets": [
    {"normal": [1, 0], "offset": 0},
    {"normal": [0, 1], "offset": 0},
    {"normal": [-1, -1], "offset": 2}]}

BAD_TRIANGLE = {"dim": 2, "facets": [
    {"normal": [1, 0], "offset": 0},
    {"normal": [0, 1], "offset": 0},
    {"normal": [-1, -2], "offset": 2}]}

SEGMENT = {"dim": 1, "facets": [
    {"normal": [1], "offset": "1/2"},
    {"normal": [-1], "offset": "3/2"}]}

UNIT_SEGMENT = {"dim": 1, "facets": [
    {"normal": [1], "offset": 0},
    {"normal": [-1], "offset": 1}]}

EMPTY_SEGMENT = {"dim": 1, "facets": [
    {"normal": [1], "offset": "1/2"},
    {"normal": [-1], "offset": "-3/2"}]}

QUADRANT = {"dim": 2, "facets": [
    {"normal": [1, 0], "offset": 0},
    {"normal": [0, 1], "offset": 0}]}

STRIP = {"dim": 2, "facets": [
    {"normal": [1, 0], "offset": 0},
    {"normal": [-1, 0], "offset": 1}]}

SQUARE = {"dim": 2, "facets": [
    {"normal": [1, 0], "offset": "1/2"},
    {"normal": [0, 1], "offset": "1/2"},
    {"normal": [-1, 0], "offset": "3/2"},
    {"normal": [0, -1], "offset": "3/2"}]}


CORRECTED_BOX3 = {"dim": 3, "facets": [
    {"normal": [1, 0, 0], "offset": "1/2"},
    {"normal": [0, 1, 0], "offset": "1/2"},
    {"normal": [0, 0, 1], "offset": "1/2"},
    {"normal": [-1, 0, 0], "offset": "3/2"},
    {"normal": [0, -1, 0], "offset": "3/2"},
    {"normal": [0, 0, -1], "offset": "3/2"}]}

# norms stdout captured byte for byte in golden/norms_<name>.csv
GOLDEN = Path(__file__).resolve().parent / "golden"
PINNED_NORMS = {
    "segment": (SEGMENT, []),
    "square": (SQUARE, ["--s-grid", "10,20,40", "--tol", "1e-6"]),
    "box3": (CORRECTED_BOX3, ["--tol", "1e-4"]),
}


def write(tmp_path, data, name="poly.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def rows_of(text):
    return list(csv.reader(io.StringIO(text)))


class TestValidate:
    def test_ok(self, tmp_path, capsys):
        code, out = run(capsys, ["--input", write(tmp_path, SIMPLEX),
                                 "--command", "validate"])
        assert code == 0
        assert "verdict,ok" in out

    def test_bad_vertex_named(self, tmp_path, capsys):
        code, out = run(capsys, ["--input", write(tmp_path, BAD_TRIANGLE),
                                 "--command", "validate", "--format", "json"])
        assert code == 1
        payload = json.loads(out)
        assert payload["verdict"] == "not delzant"
        assert any(v == ["0", "1"] for v, _ in payload["violations"])

    def test_missing_key(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"dim": 2}))
        code, _ = run(capsys, ["--input", str(path), "--command", "validate"])
        assert code == 2

    def test_unparseable_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        code, _ = run(capsys, ["--input", str(path), "--command", "validate"])
        assert code == 2


class TestPoints:
    def test_segment_basis(self, tmp_path, capsys):
        code, out = run(capsys, ["--input", write(tmp_path, SEGMENT),
                                 "--command", "points"])
        assert code == 0
        rows = rows_of(out)
        assert rows[0] == ["index", "m", "H"]
        assert [r[1] for r in rows[1:]] == ["0", "1"]

    @pytest.mark.parametrize("command", ["points", "norms"])
    def test_h_beyond_the_float_range(self, tmp_path, capsys, command):
        # the segment [10^200 - 1/2, 10^200 + 3/2]: 1/2 m^2 overflows
        big = {"dim": 1, "facets": [
            {"normal": [1], "offset": f"{1 - 2 * 10**200}/2"},
            {"normal": [-1], "offset": f"{2 * 10**200 + 3}/2"}]}
        code = main(["--input", write(tmp_path, big), "--command", command])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == ("error: H(m) = 1/2 |m_{<=p}|^2 is beyond "
                                "the float range\n")


class TestNorms:
    def test_segment_rows_and_limits(self, tmp_path, capsys):
        code, out = run(capsys, ["--input", write(tmp_path, SEGMENT),
                                 "--command", "norms", "--p", "1",
                                 "--s-grid", "10,100", "--tol", "1e-8"])
        assert code == 0
        rows = rows_of(out)[1:]
        data = [r for r in rows if r[1] != "inf"]
        limits = [r for r in rows if r[1] == "inf"]
        assert len(data) == 4 and len(limits) == 2
        for r in limits:
            assert float(r[5]) == pytest.approx(2.3025, abs=2e-4)
            assert r[6] == "True"

    def test_json_mirrors_csv(self, tmp_path, capsys):
        base = ["--input", write(tmp_path, SEGMENT), "--command", "norms",
                "--p", "1", "--s-grid", "10,20", "--m", "0"]
        _, out_csv = run(capsys, base + ["--format", "csv"])
        _, out_json = run(capsys, base + ["--format", "json"])
        payload = json.loads(out_json)
        assert rows_of(out_csv) == [payload["columns"]] + payload["rows"]

    def test_set_up_is_shared_across_s(self, tmp_path, capsys, monkeypatch):
        # one region for the whole polytope and one set of exact minors per
        # distinct facet matrix: the full A and the A of c_m's slice
        regions, minors = [], []

        def count(home, name, record):
            fn = getattr(home, name)

            def wrapped(arg):
                record.append(arg)
                return fn(arg)

            monkeypatch.setattr(home, name, wrapped)

        count(quantization, "triangulate", regions)
        count(quadrature, "triangulate", regions)
        count(potential, "_squared_minors", minors)
        code, _ = run(capsys, ["--input", write(tmp_path, SQUARE),
                               "--command", "norms", "--p", "1", "--m", "0;0",
                               "--s-grid", "10,20,40", "--tol", "1e-3"])
        assert code == 0
        assert [poly.dim for poly in regions] == [2, 1]
        assert [A.shape for A in minors] == [(4, 2), (4, 1)]

    def test_unknown_m(self, tmp_path, capsys):
        code, _ = run(capsys, ["--input", write(tmp_path, SEGMENT),
                               "--command", "norms", "--m", "7"])
        assert code == 2

    def test_norm2_past_the_float_range_prints_inf(self, tmp_path, capsys):
        # e^{2 s H(5)} = e^{1000} at s = 40
        wide = {"dim": 1, "facets": [{"normal": [1], "offset": "1/2"},
                                     {"normal": [-1], "offset": "11/2"}]}
        code, out = run(capsys, ["--input", write(tmp_path, wide),
                                 "--command", "norms", "--m", "5",
                                 "--s-grid", "10,20,40", "--tol", "1"])
        assert code == 0
        rows = rows_of(out)[1:]
        assert [r[1] for r in rows] == ["10", "20", "40", "inf"]
        assert math.isfinite(float(rows[1][2]))
        assert rows[2][2] == "inf"

    def test_pass_needs_converged_integrals(self, tmp_path, capsys,
                                            monkeypatch):
        monkeypatch.setenv("TORICQ_CELL_BUDGET", "20")
        code, out = run(capsys, ["--input", write(tmp_path, SEGMENT),
                                 "--command", "norms", "--m", "0",
                                 "--s-grid", "10,20,40", "--tol", "1e-13"])
        assert code == 0
        assert [r[6] for r in rows_of(out)[1:]] == ["False"] * 4


    def test_budget_warning_stays_off_stderr(self, tmp_path):
        # the library logs a warning when the budget stops an integral;
        # with no logging configured the CLI's stderr stays empty
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src), TORICQ_CELL_BUDGET="20")
        proc = subprocess.run(
            [sys.executable, "-m", "toricq.cli", "--input",
             write(tmp_path, SEGMENT), "--command", "norms", "--m", "0",
             "--s-grid", "10,20,40", "--tol", "1e-13"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0
        assert [r[6] for r in rows_of(proc.stdout)[1:]] == ["False"] * 4
        assert proc.stderr == ""

    @pytest.mark.parametrize("name", list(PINNED_NORMS))
    def test_stdout_is_pinned(self, tmp_path, capsys, name):
        # README promises bit-identical output from run to run; this pins
        # it across changes to the integrator that must not move a digit.
        # A change that knowingly moves the printed digits (ROADMAP items
        # 3-5) re-captures tests/golden/norms_<name>.csv and says so in
        # CHANGES.md.
        poly, flags = PINNED_NORMS[name]
        code, out = run(capsys, ["--input", write(tmp_path, poly),
                                 "--command", "norms", "--p", "1"] + flags)
        assert code == 0
        assert out.encode() == (GOLDEN / f"norms_{name}.csv").read_bytes()


class TestFlow:
    def test_distances_decrease(self, tmp_path, capsys):
        code, out = run(capsys, ["--input", write(tmp_path, SQUARE),
                                 "--command", "flow", "--p", "1",
                                 "--s-grid", "1,10,100"])
        assert code == 0
        rows = rows_of(out)[1:]
        dists = [float(r[2]) for r in rows]
        gaps = [float(r[3]) for r in rows]
        assert dists == sorted(dists, reverse=True)
        assert gaps == sorted(gaps, reverse=True)

    def test_vertical_limit_when_p_equals_n(self, tmp_path, capsys):
        code, out = run(capsys, ["--input", write(tmp_path, SQUARE),
                                 "--command", "flow", "--p", "2",
                                 "--s-grid", "1,10,100"])
        assert code == 0
        dists = [float(r[2]) for r in rows_of(out)[1:]]
        assert dists == sorted(dists, reverse=True)

    @pytest.mark.parametrize("data,point", [(SEGMENT, "0.3"),
                                            (SQUARE, "0.3,0.6")],
                             ids=["segment", "square"])
    def test_matches_closed_form(self, tmp_path, capsys, data, point):
        # both Hessians are diagonal, so with p = 1 only the first axis
        # moves: from the facets x1 + 1/2 and 3/2 - x1,
        # g1 = (1/(x1 + 1/2) + 1/(3/2 - x1))/2 and
        # T111 = -(1/(x1 + 1/2)^2 - 1/(3/2 - x1)^2)/2; the largest principal
        # angle is arctan(1/(g1 + s)) and the gap |T111|/(4 (g1 + s)^2)
        grid = [0.0, 1.0, 10.0, 100.0, 1000.0]
        code, out = run(capsys, ["--input", write(tmp_path, data),
                                 "--command", "flow", "--p", "1",
                                 "--point", point, "--s-grid",
                                 ",".join(str(s) for s in grid)])
        assert code == 0
        rows = rows_of(out)[1:]
        assert [float(r[1]) for r in rows] == grid
        x1 = 0.3
        g1 = 0.5 * (1.0 / (x1 + 0.5) + 1.0 / (1.5 - x1))
        t111 = -0.5 * (1.0 / (x1 + 0.5) ** 2 - 1.0 / (1.5 - x1) ** 2)
        for s, row in zip(grid, rows):
            assert float(row[2]) == pytest.approx(math.atan(1.0 / (g1 + s)),
                                                  rel=1e-9, abs=0.0)
            assert float(row[3]) == pytest.approx(
                abs(t111) / (4.0 * (g1 + s) ** 2), rel=1e-9, abs=0.0)

    def test_near_boundary_point(self, tmp_path, capsys):
        # G is diagonal with G11 ~ 5e14 at x1 = -1/2 + 1e-15; G + sT is
        # positive-definite for every s >= 0, so each row is printed
        code, out = run(capsys, ["--input", write(tmp_path, CORRECTED_BOX3),
                                 "--command", "flow", "--p", "2",
                                 "--s-grid", "1,10",
                                 "--point=-0.499999999999999,0.3,0.4"])
        assert code == 0
        rows = rows_of(out)[1:]
        assert len(rows) == 2
        assert all(math.isfinite(float(v)) for r in rows for v in r[1:])

    @pytest.mark.parametrize("p", [1, 2])
    def test_one_base_evaluation_per_point(self, tmp_path, capsys,
                                           monkeypatch, p):
        # Hess g and its third derivatives once for the whole s-grid and
        # the limit, and every row as from a fresh ray for each s
        calls = {"hess": 0, "third": 0}
        for name in calls:
            def counted(pot, x, _name=name,
                        _fn=getattr(potential.SymplecticPotential, name)):
                calls[_name] += 1
                return _fn(pot, x)
            monkeypatch.setattr(potential.SymplecticPotential, name, counted)
        grid = [1.0, 10.0, 100.0, 1000.0]
        code, out = run(capsys, ["--input", write(tmp_path, SQUARE),
                                 "--command", "flow", "--p", str(p),
                                 "--point", "0.3,0.6", "--s-grid",
                                 ",".join(map(str, grid))])
        assert code == 0
        assert calls == {"hess": 1, "third": 1}
        x = np.array([0.3, 0.6])

        def ray():
            base = potential.guillemin_potential(
                polytope.polytope_from_json(SQUARE))
            return geodesic.MabuchiRay(base, p, x)

        expected = [[
            "0.29999999999999999;0.59999999999999998", fmt(s),
            fmt(geodesic.grassmann_distance(
                geodesic.polarization_frame_s(ray(), s),
                geodesic.polarization_frame_limit(ray()))),
            fmt(np.linalg.norm(geodesic.connection_form_s(ray(), s)
                               - geodesic.connection_form_limit(ray())))]
            for s in grid]
        assert rows_of(out)[1:] == expected

    def test_exterior_point_marked(self, tmp_path, capsys):
        # a --point that is not interior is a usage error, as for curvature
        code = main(["--input", write(tmp_path, SQUARE), "--command", "flow",
                     "--point", "9,9"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: point [9. 9.] is not interior\n"

    @pytest.mark.parametrize("data,point,message", [
        # Hess g = diag(g11, 0) on a strip is only positive semi-definite
        (STRIP, "0.5,0.5", "not positive-definite"),
        # G^(-1) = 2e300 I drowns the i I of the frame rows
        (QUADRANT, "1e300,1e300", "rank-deficient"),
        # 1/x1^2 overflows in the third derivatives, 1/x1 in the Hessian
        (QUADRANT, "1e-300,1", "not finite"),
        (QUADRANT, "1e-320,1", "not finite")],
        ids=["semidefinite", "rank-deficient", "third-overflow",
             "hessian-overflow"])
    def test_degenerate_point_is_a_domain_failure(self, tmp_path, capsys,
                                                   data, point, message):
        code = main(["--input", write(tmp_path, data), "--command", "flow",
                     "--point", point])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert message in captured.err and captured.err.count("\n") == 1

    def test_float_failure_that_no_guard_names(self, tmp_path, capsys,
                                                monkeypatch):
        # a connection form scaled past the float range: numpy raises in
        # every command, and main turns the raise into one error line
        form = geodesic.connection_form_s
        monkeypatch.setattr(geodesic, "connection_form_s",
                            lambda ray, s: form(ray, s) * 1e300 * 1e300)
        code = main(["--input", write(tmp_path, SQUARE), "--command", "flow"])
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        assert err == "error: overflow encountered in multiply\n"

    def test_default_point_not_interior(self, tmp_path, capsys):
        # the only vertex of the quadrant is the origin, on its boundary
        code, err = run_err(capsys, ["--input", write(tmp_path, QUADRANT),
                                     "--command", "flow"])
        assert code == 1
        assert "not interior" in err and "--point" in err
        assert err.count("\n") == 1


class TestReduce:
    def test_simplex_levels(self, tmp_path, capsys):
        code, out = run(capsys, ["--input", write(tmp_path, SIMPLEX),
                                 "--command", "reduce", "--p", "1"])
        assert code == 0
        rows = rows_of(out)[1:]
        assert [r[1] for r in rows[:-1]] == ["3", "2", "1"]
        assert rows[-1] == ["total", "6", "ok"]

    def test_square_levels(self, tmp_path, capsys):
        code, out = run(capsys, ["--input", write(tmp_path, SQUARE),
                                 "--command", "reduce", "--p", "1"])
        assert code == 0
        rows = rows_of(out)[1:]
        assert [r[1] for r in rows[:-1]] == ["2", "2"]

    @pytest.mark.parametrize("data", [
        {"dim": 2, "facets": [{"normal": [1, 0], "offset": 0},
                              {"normal": [0, 1], "offset": 0},
                              {"normal": [-1, -1], "offset": 3 * 10**6}]},
        {"dim": 1, "facets": [{"normal": [1], "offset": 0},
                              {"normal": [-1], "offset": 3 * 10**6}]}],
        ids=["triangle", "segment"])
    def test_too_many_levels_refused_before_the_lattice_walk(
            self, tmp_path, capsys, data):
        # 3 * 10**6 + 1 levels over x1; the triangle has 4.5 * 10**12
        # lattice points, which are never walked
        start = time.perf_counter()
        code, err = run_err(capsys, ["--input", write(tmp_path, data),
                                     "--command", "reduce", "--p", "1"])
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert err == "error: more than 1000000 levels to report\n"

    def test_alpha_family(self, tmp_path, capsys):
        code, out = run(capsys, ["--command", "reduce", "--alpha", "2"])
        assert code == 0
        row = rows_of(out)[1]
        assert row[1] == "worse"
        assert float(row[2]) == pytest.approx(2.0 / 3.0, abs=1e-6)
        assert float(row[3]) == pytest.approx(1.0 / 3.0, abs=1e-6)


class TestCurvature:
    def test_unit_segment(self, tmp_path, capsys):
        code, out = run(capsys, ["--input", write(tmp_path, UNIT_SEGMENT),
                                 "--command", "curvature", "--point", "0.5"])
        assert code == 0
        assert float(rows_of(out)[1][1]) == pytest.approx(2.0, abs=1e-6)

    def test_boundary_point_usage_error(self, tmp_path, capsys):
        code, _ = run(capsys, ["--input", write(tmp_path, UNIT_SEGMENT),
                               "--command", "curvature", "--point", "5.0"])
        assert code == 2

    def test_barycenter_without_point(self, tmp_path, capsys):
        # the Guillemin metric of the simplex of size lam is Fubini-Study on
        # CP^n, of constant scalar curvature n(n+1)/lam: 3 for n = lam = 2
        code, out = run(capsys, ["--input", write(tmp_path, SIMPLEX),
                                 "--command", "curvature"])
        assert code == 0
        point, value = rows_of(out)[1]
        assert [float(v) for v in point.split(";")] == pytest.approx(
            [2 / 3, 2 / 3], abs=1e-15)
        assert float(value) == pytest.approx(3.0, abs=1e-6)

    def test_default_point_not_interior(self, tmp_path, capsys):
        code, err = run_err(capsys, ["--input", write(tmp_path, QUADRANT),
                                     "--command", "curvature"])
        assert code == 1
        assert "not interior" in err and "--point" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("normal, point", [((1, 0), "0.5,0"),
                                               ((2, 3), "0.1,0")])
    def test_strip_has_a_singular_hessian(self, tmp_path, capsys, normal,
                                          point):
        # the normals +-normal do not span the plane, whatever their floats
        strip = {"dim": 2, "facets": [
            {"normal": list(normal), "offset": 0},
            {"normal": [-c for c in normal], "offset": 1}]}
        code = main(["--input", write(tmp_path, strip), "--command",
                     "curvature", f"--point={point}"])
        x = np.array([float(v) for v in point.split(",")])
        assert (code, *capsys.readouterr()) == (
            1, "", f"error: the Hessian at {x} is singular in floats\n")

    def test_far_interior_point(self, tmp_path, capsys):
        # the quadrant is flat: S is 0 there, with no sign
        code = main(["--input", write(tmp_path, QUADRANT), "--command",
                     "curvature", "--point", "1e150,1"])
        assert (code, *capsys.readouterr()) == (
            0, "point,scalar_curvature\n9.9999999999999998e+149;1,0\n", "")

    def test_point_where_the_curvature_is_not_finite(self, tmp_path, capsys):
        # l^3 overflows here, but no term of the projection form does: S = 0
        code = main(["--input", write(tmp_path, QUADRANT), "--command",
                     "curvature", "--point", "1e200,1e200"])
        assert (code, *capsys.readouterr()) == (
            0, "point,scalar_curvature\n"
            "9.9999999999999997e+199;9.9999999999999997e+199,0\n", "")


COLD_START = """
import contextlib, io, sys
from toricq.cli import main
codes = []
for argv in (["validate"], ["points"],
             ["norms", "--m", "0;0", "--s-grid", "10,20", "--tol", "1e-3"],
             ["flow"], ["reduce"], ["curvature"]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(["--input", sys.argv[1], "--command"] + argv))
print(codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_cold_start_loads_no_scipy(tmp_path):
    # every toricq invocation is a fresh process that pays for its imports;
    # scipy is a test oracle only, so no command may load it
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", COLD_START, write(tmp_path, SQUARE)],
        capture_output=True, text=True, env=env, timeout=120, check=True)
    assert proc.stdout.strip() == "[0, 0, 0, 0, 0, 0] []"


SHARED_PARSER = """
import argparse, contextlib, io, json, sys
built, init = [], argparse.ArgumentParser.__init__


def counted(self, *args, **kwargs):
    built.append(1)
    init(self, *args, **kwargs)


argparse.ArgumentParser.__init__ = counted
from toricq.cli import main
runs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \\
            contextlib.redirect_stderr(io.StringIO()):
        runs.append([main(argv), out.getvalue()])
print(json.dumps({"built": len(built), "runs": runs}))
"""


def test_shared_parser_leaks_no_state(tmp_path):
    # main builds its parser once per process; each call must still print
    # what a fresh process prints for the same argv
    base = ["--input", write(tmp_path, SEGMENT), "--command", "norms",
            "--s-grid", "10,20", "--tol", "1e-3"]
    argvs = [base + ["--m", "0", "--format", "json"],
             base + ["--format", "csv"],
             base + ["--format", "xml"],
             base + ["--m", "0"],
             base + ["--format", "json"],
             ["--input", base[1], "--command", "points"],
             base + ["--m", "0", "--format", "csv"]]
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", SHARED_PARSER, json.dumps(argvs)],
        capture_output=True, text=True, env=env, timeout=120, check=True)
    result = json.loads(proc.stdout)
    assert result["built"] == 1
    assert [code for code, _ in result["runs"]] == [0, 0, 2, 0, 0, 0, 0]
    for argv, run_in_process in zip(argvs, result["runs"]):
        fresh = subprocess.run(
            [sys.executable, "-m", "toricq.cli"] + argv,
            capture_output=True, text=True, env=env, timeout=120)
        assert run_in_process == [fresh.returncode, fresh.stdout]


class TestContracts:
    def test_bad_s_grid(self, tmp_path, capsys):
        code, _ = run(capsys, ["--input", write(tmp_path, SEGMENT),
                               "--command", "norms", "--s-grid", "10,5"])
        assert code == 2

    def test_nonpositive_tol(self, tmp_path, capsys):
        code, _ = run(capsys, ["--input", write(tmp_path, SEGMENT),
                               "--command", "norms", "--tol", "0"])
        assert code == 2

    def test_missing_input(self, capsys):
        code, _ = run(capsys, ["--command", "points"])
        assert code == 2

    def test_frame_change_preserves_counts(self, tmp_path, capsys):
        base = ["--input", write(tmp_path, SIMPLEX), "--command", "points"]
        _, out0 = run(capsys, base)
        _, out1 = run(capsys, base + ["--B", "1,1;0,1"])
        assert len(rows_of(out0)) == len(rows_of(out1))

    def test_norms_deterministic(self, tmp_path, capsys):
        argv = ["--input", write(tmp_path, SEGMENT), "--command", "norms",
                "--p", "1", "--s-grid", "10,20"]
        _, out1 = run(capsys, argv)
        _, out2 = run(capsys, argv)
        assert out1 == out2

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "report.csv"
        code, out = run(capsys, ["--input", write(tmp_path, SEGMENT),
                                 "--command", "points", "--out", str(target)])
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("index,m,H")


def run_err(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    return code, captured.err


def alpha_curvatures(command, out):
    """The S values that `reduce --alpha` (at (1, 1) and (2, 2)) or
    `curvature --alpha` (at (1, 1)) prints."""
    row = rows_of(out)[1]
    return [float(v) for v in (row[2:] if command == "reduce" else row[1:])]


class TestFlagValidation:
    @pytest.mark.parametrize("command", ["reduce", "curvature"])
    @pytest.mark.parametrize("alpha", ["2.7", "-1", "0", "x"])
    def test_alpha_must_be_positive_int(self, capsys, command, alpha):
        code, _ = run_err(capsys, ["--command", command, f"--alpha={alpha}"])
        assert code == 2

    @pytest.mark.parametrize("command", ["reduce", "curvature"])
    def test_alpha_beyond_the_float_range(self, capsys, command):
        code, err = run_err(capsys, ["--command", command,
                                     f"--alpha={10**400}"])
        assert code == 2
        assert "argument --alpha" in err

    @pytest.mark.parametrize("command, expected", [("reduce", 1),
                                                   ("curvature", 1)])
    def test_alpha_with_a_singular_float_hessian(self, capsys, command,
                                                 expected):
        # at (1, 1) the Hessian 1/2 (I + alpha/2 J) rounds to a singular
        # one, but S = 2 alpha / ((alpha + 1)(x1 + x2)) needs no inverse:
        # the expected S at (1, 1) is 1, and 1/2 at (2, 2)
        code, out = run(capsys, ["--command", command, f"--alpha={10**66}"])
        assert code == 0
        assert alpha_curvatures(command, out) == pytest.approx(
            [expected, expected / 2][:2 if command == "reduce" else 1],
            rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("command, expected", [("reduce", 1),
                                                   ("curvature", 1)])
    def test_alpha_with_a_non_finite_curvature(self, capsys, command,
                                               expected):
        # at (1, 1) the facet value alpha (x1 + x2) overflows, and S is nan
        code = main(["--command", command, f"--alpha={10**308}"])
        out, err = capsys.readouterr()
        assert code == expected
        assert out == ""
        assert err == ("error: the scalar curvature at [1. 1.] is not "
                       "finite in floats\n")

    @pytest.mark.parametrize("command", ["reduce", "curvature"])
    def test_alpha_whose_squared_normal_overflows(self, capsys, command):
        # |(alpha, alpha)| is taken without squaring, and no numpy warning
        # is raised: S is 2 alpha / ((alpha + 1)(x1 + x2)), 1 at (1, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["--command", command, f"--alpha={10**200}"])
        out, err = capsys.readouterr()
        assert (code, err) == (0, "")
        assert alpha_curvatures(command, out) == pytest.approx(
            [1.0, 0.5][:2 if command == "reduce" else 1], rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("point, message", [
        ("-0.5,0.5", "is not interior"),
        ("-0.4999999999999,0.5", None)])
    def test_curvature_at_an_unusable_point_is_a_usage_error(
            self, tmp_path, capsys, point, message):
        # on a facet the point is a usage error; 1e-13 inside it, S is the
        # square's constant 2/2 + 2/2 = 2, with no cut-off near the boundary
        code = main(["--input", write(tmp_path, SQUARE), "--command",
                     "curvature", f"--point={point}"])
        out, err = capsys.readouterr()
        if message is not None:
            assert (code, out) == (2, "")
            assert message in err and err.count("\n") == 1
        else:
            assert (code, err) == (0, "")
            assert float(rows_of(out)[1][1]) == pytest.approx(2.0, rel=1e-14,
                                                               abs=0.0)

    @pytest.mark.parametrize("command", ["flow", "curvature"])
    @pytest.mark.parametrize("point", ["0.25,inf", "-inf,0.5", "nan,0.5"])
    def test_point_that_is_not_finite(self, tmp_path, capsys, command, point):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["--input", write(tmp_path, SQUARE), "--command",
                         command, f"--point={point}"])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err == "error: --point needs finite coordinates\n"

    @pytest.mark.parametrize("command", ["flow", "curvature"])
    def test_exterior_point_whose_facet_value_overflows(self, tmp_path,
                                                        capsys, command):
        # on the triangle x + y <= 2, the facet value 2 - x - y at
        # (1e308, 1e308) overflows to -inf: the point is exterior, a usage
        # error, and numpy prints no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["--input", write(tmp_path, SIMPLEX), "--command",
                         command, "--point=1e308,1e308"])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err == "error: point [1.e+308 1.e+308] is not interior\n"

    def test_points_p_out_of_range(self, tmp_path, capsys):
        code, err = run_err(capsys, ["--input", write(tmp_path, SEGMENT),
                                     "--command", "points", "--p", "5"])
        assert code == 2
        assert "--p 5" in err

    @pytest.mark.parametrize("command", ["flow", "curvature"])
    def test_point_of_wrong_dimension(self, tmp_path, capsys, command):
        code, err = run_err(capsys, ["--input", write(tmp_path, SQUARE),
                                     "--command", command,
                                     "--point", "0.5,0.5,0.5"])
        assert code == 2
        assert "--point" in err

    def test_alpha_point_of_wrong_dimension(self, capsys):
        code, _ = run_err(capsys, ["--command", "curvature", "--alpha", "2",
                                   "--point", "1"])
        assert code == 2

    def test_norms_s_grid_with_zero(self, tmp_path, capsys):
        code, err = run_err(capsys, ["--input", write(tmp_path, SEGMENT),
                                     "--command", "norms", "--s-grid", "0,10"])
        assert code == 2
        assert "--s-grid" in err

    @pytest.mark.parametrize("grid", ["nan", "10,inf"])
    def test_norms_s_grid_must_be_finite(self, tmp_path, capsys, grid):
        code, err = run_err(capsys, ["--input", write(tmp_path, SEGMENT),
                                     "--command", "norms", "--s-grid", grid])
        assert code == 2
        assert err.startswith("error: --s-grid")
        assert err.count("\n") == 1

    def test_norms_s_beyond_the_float_range(self, tmp_path, capsys):
        # at p = 2 the s^2 coefficient of det G_s overflows a float
        code, err = run_err(capsys, ["--input", write(tmp_path, SQUARE),
                                     "--command", "norms", "--p", "2",
                                     "--m", "0;0", "--s-grid", "10,1e160"])
        assert code == 1
        assert err.startswith("error: s = 1e+160")
        assert err.count("\n") == 1

    def test_norms_s_beyond_the_float_range_at_p_1(self, tmp_path):
        # at p = 1 the integrand overflows to nan; numpy stays silent and
        # the integral names s
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-m", "toricq.cli", "--input",
             write(tmp_path, SQUARE), "--command", "norms", "--p", "1",
             "--m", "0;0", "--s-grid", "10,1e308"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: s = 1e+308")
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("grid, first", [
        # the integral at 5e307 is not finite, and at 1e308 the
        # coefficient 2 s of det G_s overflows: 5e307 fails first
        ("10,5e307,1e308", "s = 5e+307: the norm integral is not finite"),
        ("10,1e308", "s = 1e+308: a coefficient of det G_s overflows"),
        ("5e307,6e307", "s = 5e+307: the norm integral is not finite"),
    ], ids=["not-finite-first", "overflow", "not-finite-twice"])
    def test_norms_name_the_first_failing_s(self, tmp_path, capsys, grid,
                                            first):
        # s-integrals run in lockstep, yet the first s in grid order that
        # fails names the error, as when they ran one after the other
        rect = {"dim": 2, "facets": [
            {"normal": [1, 0], "offset": "1/2"},
            {"normal": [-1, 0], "offset": "3/2"},
            {"normal": [0, 2], "offset": 1},
            {"normal": [0, -2], "offset": 3}]}
        code, err = run_err(capsys, ["--input", write(tmp_path, rect),
                                     "--command", "norms", "--p", "1",
                                     "--m", "0;0", "--s-grid", grid])
        assert code == 1
        assert err == f"error: {first}\n"

    @pytest.mark.parametrize("grid", [
        "1e-320,1",             # 1/s overflows
        "1e-200,1,2",           # a power of 1/s overflows
        "1.9999999999999996,1.9999999999999998",    # one 1/s: singular
    ])
    def test_norms_extrapolation_that_is_not_finite(self, tmp_path, capsys,
                                                    grid):
        # the limit row never prints nan: the grid names a domain failure,
        # with numpy silent
        code = main(["--input", write(tmp_path, SQUARE), "--command",
                     "norms", "--p", "1", "--m", "0;0", "--s-grid", grid])
        out, err = capsys.readouterr()
        named = ",".join(repr(float(s)) for s in grid.split(","))
        assert (code, out) == (1, "")
        assert err == (f"error: s-grid {named}: the extrapolation to s = oo "
                       "is singular or not finite\n")

    def test_norms_finite_extrapolation_of_a_small_s(self, tmp_path, capsys):
        code, out = run(capsys, ["--input", write(tmp_path, SQUARE),
                                 "--command", "norms", "--p", "1", "--m",
                                 "0;0", "--s-grid", "1e-10,1,2"])
        assert code == 0
        assert rows_of(out)[-1][:4] == ["0;0", "inf", "", "4.4270248400841581"]

    @pytest.mark.parametrize("entry", ['"1"', "1.0", "true"])
    def test_normal_entries_must_be_json_integers(self, tmp_path, capsys,
                                                  entry):
        path = tmp_path / "poly.json"
        path.write_text('{"dim": 1, "facets": [{"normal": [%s], "offset": 0},'
                        ' {"normal": [-1], "offset": 2}]}' % entry)
        for command in ("validate", "points"):
            code, err = run_err(capsys, ["--input", str(path),
                                         "--command", command])
            assert code == 2
            assert err.startswith("error: malformed polytope JSON")
            assert "JSON integers" in err

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_tol_must_be_finite(self, tmp_path, capsys, tol):
        code, err = run_err(capsys, ["--input", write(tmp_path, SEGMENT),
                                     "--command", "norms", "--m", "0",
                                     "--tol", tol])
        assert code == 2
        assert err.startswith("error: --tol")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("normal", ["[1.5]", "[Infinity]"])
    def test_normal_must_be_integer(self, tmp_path, capsys, normal):
        path = tmp_path / "poly.json"
        path.write_text('{"dim": 1, "facets": [{"normal": %s, "offset": 0},'
                        ' {"normal": [-1], "offset": 1}]}' % normal)
        code, err = run_err(capsys, ["--input", str(path),
                                     "--command", "validate"])
        assert code == 2
        assert err.startswith("error: malformed polytope JSON")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("budget", ["abc", "0", "-5"])
    def test_cell_budget_must_be_positive_int(self, tmp_path, capsys,
                                              monkeypatch, budget):
        monkeypatch.setenv("TORICQ_CELL_BUDGET", budget)
        code, err = run_err(capsys, ["--input", write(tmp_path, SEGMENT),
                                     "--command", "norms", "--m", "0",
                                     "--s-grid", "10,20"])
        assert code == 2
        assert err.startswith("error: TORICQ_CELL_BUDGET")
        assert err.count("\n") == 1

    def test_norms_on_unshifted_polytope(self, tmp_path, capsys):
        code, err = run_err(capsys, ["--input", write(tmp_path, UNIT_SEGMENT),
                                     "--command", "norms", "--s-grid", "10,20"])
        assert code == 1
        assert err.startswith("error: ")
        assert "half-form shifted" in err
        assert err.count("\n") == 1


class TestShearBeyondTheFloatRange:
    """The corrected square under the shear x2 -> x2 + K x1, K = 10**400:
    four lattice points, but facet normals, vertices and the trailing
    coordinates beyond the float range."""

    K = 10**400

    def run(self, tmp_path, capsys, argv):
        return run_err(capsys, ["--input", write(tmp_path, SQUARE),
                                "--B", f"1,0;{self.K},1"] + argv)

    @pytest.mark.parametrize("command", ["validate", "reduce"])
    def test_exact_commands_succeed(self, tmp_path, capsys, command):
        code, err = self.run(tmp_path, capsys, ["--command", command])
        assert (code, err) == (0, "")

    def test_points_read_h_from_the_leading_coordinate(self, tmp_path, capsys):
        code = main(["--input", write(tmp_path, SQUARE), "--B",
                     f"1,0;{self.K},1", "--command", "points", "--p", "1"])
        assert code == 0
        rows = rows_of(capsys.readouterr().out)
        assert rows[1:] == [["0", "0;0", "0"], ["1", "0;1", "0"],
                            ["2", f"1;{self.K}", "0.5"],
                            ["3", f"1;{self.K + 1}", "0.5"]]

    @pytest.mark.parametrize("argv", [
        ["--command", "points", "--p", "2"],
        ["--command", "flow"], ["--command", "curvature"],
        ["--command", "norms"], ["--command", "norms", "--p", "2"],
        ["--command", "norms", "--m", "0;0"]])
    def test_float_commands_name_the_value(self, tmp_path, capsys, argv):
        code, err = self.run(tmp_path, capsys, argv)
        assert code == 1
        assert err.startswith("error: ")
        assert f"{self.K} is beyond the float range" in err
        assert err.count("\n") == 1

    def test_reduce_refuses_too_many_levels(self, tmp_path, capsys):
        code, err = self.run(tmp_path, capsys,
                             ["--command", "reduce", "--p", "2"])
        assert code == 1
        assert err == "error: more than 1000000 levels to report\n"


class TestInputErrors:
    def test_input_is_a_directory(self, tmp_path, capsys):
        code, err = run_err(capsys, ["--input", str(tmp_path),
                                     "--command", "validate"])
        assert code == 2
        assert err.startswith("error: cannot read")
        assert err.count("\n") == 1

    def test_out_in_missing_directory(self, tmp_path, capsys):
        code, err = run_err(capsys, ["--input", write(tmp_path, SEGMENT),
                                     "--command", "points", "--out",
                                     str(tmp_path / "missing" / "x.csv")])
        assert code == 2
        assert err.startswith("error: cannot write")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv, error", [
        (["--B", "1,0;0"], "error: bad --B"),
        (["--B", "2,0;0,1"], "error: bad --B"),
        (["--B", "1,0,0;0,1,0;0,0,1"], "error: bad --B"),
        (["--p", "5", "--B", "1,0;0,1"], "error: --p 5 out of range")],
        ids=["ragged", "det-2", "3x3-on-2d", "p-out-of-range"])
    def test_bad_frame_change_is_a_usage_error(self, tmp_path, capsys, argv,
                                               error):
        code, err = run_err(capsys, ["--input", write(tmp_path, SIMPLEX),
                                     "--command", "points"] + argv)
        assert code == 2
        assert err.startswith(error)
        assert err.count("\n") == 1

    def test_bad_p_under_a_frame_change_stops_validate(self, tmp_path,
                                                       capsys):
        # validate reads no --p, but a frame change checks it
        code, err = run_err(capsys, ["--input", write(tmp_path, SIMPLEX),
                                     "--command", "validate", "--p", "0",
                                     "--B", "1,1;0,1"])
        assert (code, err) == (2, "error: --p 0 out of range for dimension "
                                  "2\n")

    def test_reduce_on_empty_polytope(self, tmp_path, capsys):
        code, err = run_err(capsys, ["--input", write(tmp_path, EMPTY_SEGMENT),
                                     "--command", "reduce"])
        assert code == 1
        assert err.startswith("error: empty polytope")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("facet, error", [
        ({"normal": [0, 0], "offset": 1}, "zero normal vector"),
        ({"normal": [0, 1]}, "facet 0: missing 'normal' or 'offset'")],
        ids=["zero-normal", "no-offset"])
    def test_malformed_facet(self, tmp_path, capsys, facet, error):
        data = {"dim": 2, "facets": [facet, {"normal": [1, 0], "offset": 0}]}
        code, err = run_err(capsys, ["--input", write(tmp_path, data),
                                     "--command", "validate"])
        assert (code, err) == (2, f"error: malformed polytope JSON: {error}\n")

    def test_dimension_zero_rejected(self, tmp_path, capsys):
        code, err = run_err(capsys, ["--input",
                                     write(tmp_path, {"dim": 0, "facets": []}),
                                     "--command", "curvature"])
        assert code == 2
        assert "dimension must be at least 1" in err


class TestJsonTables:
    """--format json tables are json.dumps(..., indent=2) text, built from
    the C encoder's cells."""

    @settings(max_examples=200, derandomize=True, database=None)
    @given(st.integers(1, 4).flatmap(lambda k: st.tuples(
        st.lists(st.text(max_size=6), min_size=k, max_size=k),
        st.one_of(st.just(0), st.just(1), st.integers(2, 6)).flatmap(
            lambda r: st.lists(st.lists(
                st.one_of(st.integers(-10**20, 10**20), st.text(max_size=8)),
                min_size=k, max_size=k), min_size=r, max_size=r)))))
    def test_matches_the_indenting_encoder(self, table):
        columns, rows = table
        args = build_parser().parse_args(["--command", "flow",
                                          "--format", "json"])
        assert emit(columns, rows, args) == json.dumps(
            {"columns": columns, "rows": rows}, indent=2) + "\n"

    def test_empty_lists(self):
        args = build_parser().parse_args(["--command", "flow",
                                          "--format", "json"])
        for columns, rows in (([], []), (["a"], []), (["a"], [[]]),
                              ([], [[], []])):
            assert emit(columns, rows, args) == json.dumps(
                {"columns": columns, "rows": rows}, indent=2) + "\n"
