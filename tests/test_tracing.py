"""The benchmark's layer tracing (bench/tracing.py) wraps toricq functions
by name; this guards that contract against renames and removals."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import contextlib, io, json, sys
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/bench"]
import tracing
tr = tracing.install()
from toricq import cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(["--input", sys.argv[2], "--command", "norms", "--p", "1",
                     "--m", "0", "--s-grid", "10,20", "--tol", sys.argv[3]])
metrics = tracing.layer_metrics(tr, len(out.getvalue().encode()))
print(json.dumps({"code": code, "metrics": metrics}))
"""

SEGMENT = {"dim": 1, "facets": [
    {"normal": [1], "offset": "1/2"},
    {"normal": [-1], "offset": "3/2"}]}


def test_traced_norms_command_counts_cells(tmp_path):
    poly = tmp_path / "segment.json"
    poly.write_text(json.dumps(SEGMENT))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT), str(poly), "1e-6"],
        capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["code"] == 0
    metrics = result["metrics"]
    assert metrics["quadrature.cells"] > 0
    # p = n: two norms integrals, and c_m in closed form
    assert metrics["quadrature.integrate.calls"] == 2
    assert metrics["quantization.limit_constant.calls"] == 1
    # the half-form factor comes from facet values, with no Hessian
    assert metrics["potential.hess.points"] == 0


def test_each_new_cell_reuses_its_parent_half_value(tmp_path):
    # the segment rules share q = 13 distinct nodes.  Without a budget
    # stop an integral passes nodes = 4q cells - q roots + 4q u, where u
    # counts the roots never split.  A segment integral has one root, which
    # these integrals split (u = 0), so nodes = 52 cells - 13 per integral.
    # Evaluating one split per call, and the root in two, would take
    # 2 + (cells - 1) calls per integral; the splits are evaluated in
    # batches, in far fewer calls.  The tolerance is tight enough for the
    # integrals to need batches.
    poly = tmp_path / "segment.json"
    poly.write_text(json.dumps(SEGMENT))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT), str(poly), "1e-10"],
        capture_output=True, text=True, timeout=120, check=True)
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    cells = metrics["quadrature.cells"]
    integrals = metrics["quadrature.integrate.calls"]
    assert metrics["quadrature.nodes"] == 52 * cells - 13 * integrals
    assert metrics["quadrature.integrand_calls"] <= (cells + integrals) // 2


REDUCE_SCRIPT = """
import contextlib, io, json, sys
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/bench"]
import tracing
tr = tracing.install()
from toricq import cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(["--input", sys.argv[2], "--command", "reduce",
                     "--p", "1"])
metrics = tracing.layer_metrics(tr, len(out.getvalue().encode()))
print(json.dumps({"code": code, "metrics": metrics}))
"""

SIMPLEX = {"dim": 2, "facets": [
    {"normal": [1, 0], "offset": 0},
    {"normal": [0, 1], "offset": 0},
    {"normal": [-1, -1], "offset": 3}]}


def test_traced_reduce_command_attributes_exact_geometry(tmp_path):
    # vertex enumeration must stay inside the span of HPolytope.vertices,
    # and each slice type's slice inside axis_slice
    poly = tmp_path / "simplex.json"
    poly.write_text(json.dumps(SIMPLEX))
    proc = subprocess.run(
        [sys.executable, "-c", REDUCE_SCRIPT, str(ROOT), str(poly)],
        capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["code"] == 0
    metrics = result["metrics"]
    assert metrics["polytope.vertices.s"] > 0
    # each of the levels 0..3 has lattice points; the segments at 0..2
    # share one slice type and the slice at 3 is a point, so one slice of
    # each type is built and only the segment is classified
    assert metrics["polytope.axis_slice.calls"] == 2
    assert metrics["reduction.classify_polytope.calls"] == 1
    # the report adds up its 10 lattice points from the fibre ranges of
    # the lattice walk, so no point is listed through lattice_points
    assert metrics["polytope.lattice_points.hits"] == 0
