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
                     "--m", "0;0", "--s-grid", "10,20", "--tol", sys.argv[3]])
metrics = tracing.layer_metrics(tr, len(out.getvalue().encode()))
print(json.dumps({"code": code, "metrics": metrics}))
"""

# the half-form shifted square [-1/2, 3/2]^2
SQUARE = {"dim": 2, "facets": [
    {"normal": [1, 0], "offset": "1/2"},
    {"normal": [0, 1], "offset": "1/2"},
    {"normal": [-1, 0], "offset": "3/2"},
    {"normal": [0, -1], "offset": "3/2"}]}


def test_traced_norms_command_counts_cells(tmp_path):
    # the s-integrals run in lockstep, which the tracer does not wrap, and
    # their counts are checked in test_quantization.TestNormCounts; c_m at
    # p = 1 is a slice integral through the wrapped `integrate`
    poly = tmp_path / "square.json"
    poly.write_text(json.dumps(SQUARE))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT), str(poly), "1e-6"],
        capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["code"] == 0
    metrics = result["metrics"]
    assert metrics["quadrature.cells"] > 0
    # one slice integral, for c_m
    assert metrics["quadrature.integrate.calls"] == 1
    assert metrics["quadrature.integrate_slice.s"] > 0
    assert metrics["quantization.limit_constant.calls"] == 1
    # the half-form factor comes from facet values, with no Hessian
    assert metrics["potential.hess.points"] == 0


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
