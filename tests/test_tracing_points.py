"""Under the benchmark's layer tracing (bench/tracing.py): `flow` and
`curvature` enumerate the vertices only for their default point, the
barycenter of the vertices."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import contextlib, io, json, sys
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/bench"]
import tracing
tr = tracing.install()
from toricq import cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(["--input", sys.argv[2]] + json.loads(sys.argv[3]))
metrics = tracing.layer_metrics(tr, len(out.getvalue().encode()))
print(json.dumps({"code": code, "metrics": metrics}))
"""

SIMPLEX = {"dim": 2, "facets": [
    {"normal": [1, 0], "offset": 0},
    {"normal": [0, 1], "offset": 0},
    {"normal": [-1, -1], "offset": 3}]}


def traced(poly, argv):
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT), str(poly), json.dumps(argv)],
        capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("argv", [["--command", "flow", "--s-grid", "10"],
                                  ["--command", "curvature"]],
                         ids=["flow", "curvature"])
def test_only_the_default_point_enumerates_vertices(tmp_path, argv):
    poly = tmp_path / "simplex.json"
    poly.write_text(json.dumps(SIMPLEX))
    given = traced(poly, argv + ["--point", "1,1"])
    assert given["code"] == 0
    assert given["metrics"]["polytope.vertices.s"] == 0
    default = traced(poly, argv)
    assert default["code"] == 0
    assert default["metrics"]["polytope.vertices.s"] > 0
