"""Fuzz the CLI exit-code contract: exit 0, 1 or 2, never a traceback,
stdout that is empty or parses in the requested format, stderr that is
empty on success and one `error:` line on a domain failure, and no nan in
a successful curvature, reduce, norms or flow."""

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


@st.composite
def shifted_polytope_json(draw):
    """A box around the origin in dimension 1-3, cut by up to two more
    facets, with half-integral offsets: often half-form shifted, so that
    norms reaches its integrals."""
    dim = draw(st.integers(1, 3))
    half = st.sampled_from(["1/2", "3/2"])
    facets = [{"normal": [sign * int(j == i) for j in range(dim)],
               "offset": draw(half)}
              for i in range(dim) for sign in (1, -1)]
    for normal in draw(st.lists(st.lists(
            st.integers(-1, 1), min_size=dim, max_size=dim).filter(any),
            max_size=2)):
        facets.append({"normal": normal,
                       "offset": draw(half | st.sampled_from([1, 2]))})
    return {"dim": dim, "facets": facets}


FRAMES = st.sampled_from([
    "1", "1,0;0,1", "0,1;-1,0", "1,1;0,1", "1,0,0;0,1,0;0,0,1",
    "1,0,0;1,1,0;0,0,1", "1,0;0", "2,0;0,1", "1,x", ";"])
# ints up to 10**400 in size, about half of them beyond the float range
HUGE = st.integers(-10**400, 10**400) | st.sampled_from(
    [-1, 2, 10**20, 10**300, 10**309, -10**309, 10**400, -10**400])


@st.composite
def shears(draw, dim):
    """The identity of size dim with one entry below the diagonal drawn
    from HUGE: in SL(n, Z), so the lattice points stay few, while the
    trailing coordinates and the new normals grow with the entry.  (An
    entry above the diagonal would stretch the leading coordinates, which
    the lattice walk scans one value at a time.)"""
    rows = [[int(i == j) for j in range(dim)] for i in range(dim)]
    if dim > 1:
        i = draw(st.integers(1, dim - 1))
        rows[i][draw(st.integers(0, i - 1))] = draw(HUGE)
    return ";".join(",".join(map(str, r)) for r in rows)

POINTS = st.lists(
    st.sampled_from([0.25, 0.5, 1.0, 1.5, -0.5, 5.0, 1e-300, 1e308,
                     float("nan"), float("inf")]),
    min_size=1, max_size=3).map(lambda xs: ",".join(repr(x) for x in xs))


@st.composite
def argv_options(draw, dim):
    """Options for a polytope of dimension dim; --alpha, read by reduce and
    curvature only, is drawn for those."""
    command = draw(st.sampled_from(
        ["validate", "points", "reduce", "curvature", "flow"]))
    argv = ["--command", command]
    for flag, values in (("--p", st.integers(-1, 4).map(str)),
                         ("--B", FRAMES | shears(dim)), ("--point", POINTS),
                         ("--format", st.sampled_from(["csv", "json"]))):
        value = draw(st.none() | values)
        if value is not None:
            argv.append(f"{flag}={value}")
    if command in ("reduce", "curvature") and draw(st.booleans()):
        argv.append(f"--alpha={draw(HUGE)}")
    return argv


@st.composite
def norms_case(draw):
    """A polytope and norms options, mostly valid for its dimension, so
    that most commands reach the integrals."""
    data = draw(polytope_json() | shifted_polytope_json())
    dim = max(data["dim"], 1)
    argv = ["--command", "norms", "--tol=1e-2", "--s-grid=" + draw(
        st.sampled_from(["10", "5,10", "1,40", "20", "0,10"]))]
    if draw(st.booleans()):
        argv.append(f"--p={draw(st.sampled_from([1, 1, 2, 3, 0]))}")
    if draw(st.booleans()):
        m = [str(draw(st.integers(-1, 2))) for _ in range(dim)]
        argv.append("--m=" + ";".join(draw(st.sampled_from([m, m, ["x"]]))))
    if draw(st.booleans()):
        # the identity frame, a shear of its first two axes, or a huge one
        rows = [[int(i == j) for j in range(dim)] for i in range(dim)]
        if dim > 1 and draw(st.booleans()):
            rows[0][1] = 1
        argv.append("--B=" + ";".join(",".join(map(str, r)) for r in rows))
        if draw(st.booleans()):
            argv[-1] = "--B=" + draw(shears(dim))
    if draw(st.booleans()):
        argv.append("--format=" + draw(st.sampled_from(["csv", "json"])))
    return data, argv


def check_exit_code_contract(data, options):
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
    if code == 0 or (code == 1 and text):
        # a success, or the report of a failed validation or level audit
        assert err.getvalue() == ""
    elif code == 1:
        # one error line, with no numpy warning before it
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
    if text and "--format=json" in options:
        json.loads(text)
    elif text:
        list(csv.reader(io.StringIO(text), strict=True))
    if code == 0 and options[1] in ("curvature", "reduce", "norms", "flow"):
        # a curvature, a norm limit or a flow distance or gap that is not
        # finite is a failure, never a result
        assert "nan" not in text.lower()


@settings(max_examples=200, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given((polytope_json() | shifted_polytope_json()).flatmap(
    lambda data: st.tuples(st.just(data), argv_options(max(data["dim"], 1)))))
def test_exit_code_contract(case):
    check_exit_code_contract(*case)


@settings(max_examples=100, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(norms_case())
def test_norms_exit_code_contract(monkeypatch, case):
    # a small cell budget keeps each integral short; it stops most of them
    # above --tol, which norms must report, not raise
    monkeypatch.setenv("TORICQ_CELL_BUDGET", "16")
    check_exit_code_contract(*case)
