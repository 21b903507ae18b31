"""Fuzz the CLI exit-code contract: exit 0, 1 or 2, never a traceback, and
stdout that is empty or parses in the requested format."""

import contextlib
import csv
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from toricq.cli import main

# nonnegative offsets keep the origin inside, so most polytopes are not empty
OFFSETS = st.sampled_from([0, 1, 2, 3, "1/2", "3/2", "5/2", 0.5, -1, "-1/2"])
MALFORMED_OFFSETS = st.sampled_from(
    ["abc", "1/0", None, [1], float("nan"), float("inf")])


@st.composite
def polytope_json(draw):
    """Up to 7 nonzero facet normals in dimension 0-3, at most one facet
    malformed; half of the polytopes start from a box around the origin,
    so they are bounded."""
    dim = draw(st.integers(0, 3))
    normals = []
    if draw(st.booleans()):
        normals = [[sign * int(j == i) for j in range(dim)]
                   for i in range(dim) for sign in (1, -1)]
    normals += draw(st.lists(
        st.lists(st.integers(-2, 2), min_size=dim, max_size=dim).filter(any),
        max_size=7 - len(normals)))
    facets = [{"normal": normal, "offset": draw(OFFSETS)} for normal in normals]
    fault = draw(st.sampled_from([None, None, None, "offset", "normal"]))
    if facets and fault == "offset":
        facets[0]["offset"] = draw(MALFORMED_OFFSETS)
    elif facets and fault == "normal":
        facets[0]["normal"].append(1)
    return {"dim": dim, "facets": facets}


FRAMES = st.sampled_from([
    "1", "1,0;0,1", "0,1;-1,0", "1,1;0,1", "1,0,0;0,1,0;0,0,1",
    "1,0,0;1,1,0;0,0,1", "1,0;0", "2,0;0,1", "1,x", ";"])

POINTS = st.lists(
    st.sampled_from([0.25, 0.5, 1.0, 1.5, -0.5, 5.0, float("nan"),
                     float("inf")]),
    min_size=1, max_size=3).map(lambda xs: ",".join(repr(x) for x in xs))


@st.composite
def argv_options(draw):
    argv = ["--command", draw(st.sampled_from(
        ["validate", "points", "reduce", "curvature", "flow"]))]
    for flag, values in (("--p", st.integers(-1, 4).map(str)),
                         ("--B", FRAMES), ("--point", POINTS),
                         ("--format", st.sampled_from(["csv", "json"]))):
        value = draw(st.none() | values)
        if value is not None:
            argv.append(f"{flag}={value}")
    return argv


@settings(max_examples=100, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(polytope_json(), argv_options())
def test_exit_code_contract(data, options):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "poly.json")
        with open(path, "w") as fh:
            json.dump(data, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["--input", path] + options)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    text = out.getvalue()
    if text and "--format=json" in options:
        json.loads(text)
    elif text:
        list(csv.reader(io.StringIO(text), strict=True))
