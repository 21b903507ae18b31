"""Self-tests of the benchmark itself.

    python3 bench/selftest.py

The generator must be deterministic in its seed, the checker must flag a
perturbed value, a wrong exit code and an escaped exception, the
references must agree with closed forms, and one held-out seed, never used
while the benchmark was tuned, must run clean apart from the known
failures, which are the same on every seed.  The file is not named
test_*.py so that the repository's own pytest run does not collect it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import check  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from workloads import Shape, Workload  # noqa: E402

HELD_OUT_SEED = 7919
# norms-wide commands that fail at this commit on every seed: three
# OverflowErrors and the three wrong values in check.KNOWN_INACCURATE
WIDE_KNOWN_FAILURES = 6


def expected_failures(wl):
    return sum(1 for c in wl.commands if c.kind == "norms"
               and (workloads.overflows(c.expect)
                    or check.norms_case(c.expect) in check.KNOWN_INACCURATE))


def run_cli(argv):
    from toricq import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return {"code": code, "exc": None, "out": out.getvalue()}


class GeneratorTest(unittest.TestCase):
    def test_deterministic_in_seed(self):
        with tempfile.TemporaryDirectory() as tmp:
            for name in workloads.WORKLOADS:
                a = Workload(name, 5, tmp)
                b = Workload(name, 5, tmp)
                self.assertEqual([c.argv for c in a.commands],
                                 [c.argv for c in b.commands])
                self.assertEqual(a.files, b.files)
                c = Workload(name, 6, tmp)
                self.assertNotEqual((a.files, [x.argv for x in a.commands]),
                                    (c.files, [x.argv for x in c.commands]))

    def test_known_failures_do_not_depend_on_seed(self):
        with tempfile.TemporaryDirectory() as tmp:
            for seed in range(1, 41):
                wl = Workload("norms-wide", seed, tmp)
                self.assertEqual(expected_failures(wl), WIDE_KNOWN_FAILURES,
                                 seed)
                self.assertEqual(len(wl.commands), 97)

    def test_lattice_counts_match_closed_forms(self):
        cases = {("simplex", (3, 10)): math.comb(13, 3),
                 ("simplex", (4, 7)): math.comb(11, 4),
                 ("box", (4, 5, 6)): 5 * 6 * 7,
                 ("hirzebruch", (30, 10, 2)):
                     sum(30 - 2 * y + 1 for y in range(11)),
                 ("prism", (8, 4, 1, 5)): 6 * sum(8 - y + 1 for y in range(5)),
                 ("weighted", (2, 10)): 11 ** 2}
        for (family, params), count in cases.items():
            self.assertEqual(len(workloads.family_points(family, params)),
                             count, family)

    def test_frame_change_input_maps_back(self):
        """A framed report input, put through --B, is the shape itself."""
        with tempfile.TemporaryDirectory() as tmp:
            wl = Workload("reports", 3, tmp)
            wl.write_inputs()
            framed = [c for c in wl.commands
                      if c.kind == "points" and any(a.startswith("--B=")
                                                    for a in c.argv)]
            self.assertTrue(framed)
            for cmd in framed:
                self.assertEqual(check.check(cmd, run_cli(cmd.argv), None), [])


class CheckerTest(unittest.TestCase):
    """A norms command on the corrected unit segment, checked as run and
    with its output or outcome spoiled."""

    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory()
        wl = Workload("norms-wide", 1, cls.tmp.name)
        wl.write_inputs()
        cls.refs = reference.References()
        cls.cmd = next(c for c in wl.commands
                       if c.expect["shape"].key == "segment[1]+1/2"
                       and "--format" in c.argv
                       and c.argv[c.argv.index("--format") + 1] == "csv")
        cls.result = run_cli(cls.cmd.argv)

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def test_clean_output_passes(self):
        self.assertEqual(check.check(self.cmd, self.result, self.refs), [])

    def test_perturbed_value_is_flagged(self):
        lines = self.result["out"].splitlines()
        cells = lines[2].split(",")
        cells[3] = repr(float(cells[3]) + 2 * self.cmd.expect["tol"])
        lines[2] = ",".join(cells)
        bad = dict(self.result, out="\n".join(lines) + "\n")
        problems = check.check(self.cmd, bad, self.refs)
        self.assertTrue(any("tilde_norm2" in p for p in problems), problems)

    def test_unconverged_integral_is_flagged(self):
        bad = dict(self.result, out=self.result["out"].replace(",True\n", ",False\n", 1))
        self.assertTrue(check.check(self.cmd, bad, self.refs))

    def test_wrong_exit_code_is_flagged(self):
        bad = dict(self.result, code=1)
        self.assertTrue(check.check(self.cmd, bad, self.refs))

    def test_escaped_exception_is_flagged(self):
        bad = {"code": None, "exc": "ValueError: boom", "out": ""}
        problems = check.check(self.cmd, bad, self.refs)
        self.assertTrue(problems)
        self.assertFalse(check.known_failure(self.cmd, bad, problems))

    def test_only_predicted_overflow_is_known(self):
        crash = {"code": None, "exc": "OverflowError: math range error",
                 "out": ""}
        problems = check.check(self.cmd, crash, self.refs)
        self.assertFalse(check.known_failure(self.cmd, crash, problems))
        big = Shape("segment", (6,), (0,), True)
        with tempfile.TemporaryDirectory() as tmp:
            wl = Workload("norms-wide", 1, tmp)
            wl._norms(big, 1, (6,), workloads.WIDE_GRID, "1")
        cmd = wl.commands[-1]
        self.assertTrue(workloads.overflows(cmd.expect))
        self.assertTrue(check.known_failure(cmd, crash, problems))

    def test_wrong_lattice_points_are_flagged(self):
        with tempfile.TemporaryDirectory() as tmp:
            wl = Workload("reports", 2, tmp)
            wl.write_inputs()
            cmd = next(c for c in wl.commands if c.kind == "points")
            good = run_cli(cmd.argv)
            self.assertEqual(check.check(cmd, good, None), [])
            fmt = cmd.argv[cmd.argv.index("--format") + 1]
            if fmt == "csv":
                out = "\n".join(good["out"].splitlines()[:-1]) + "\n"
            else:
                obj = json.loads(good["out"])
                obj["rows"].pop()
                out = json.dumps(obj)
            self.assertTrue(check.check(cmd, dict(good, out=out), None))


class ReferenceTest(unittest.TestCase):
    def test_table_entries_recompute(self):
        refs = reference.References()
        for shape, p, m, s in ((Shape("segment", (2,), (0,), True), 1, (1,), 20.0),
                               (workloads.DEEP_SQUARE, 1, (0, 1), 80.0),
                               (Shape("simplex", (2, 1), (0, 0), True), 1, (0, 0), 10.0)):
            value = reference.norm_value(shape.canonical_facets(), p, m, s)
            self.assertAlmostEqual(refs.table[reference.norm_key(shape, p, m, s)],
                                   value, delta=1e-10 * abs(value))

    def test_simplex_and_box_curvature_closed_forms(self):
        # Fubini-Study: n(n+1)/k on the k-simplex; a product sums 2/a_j
        simplex = Shape("simplex", (3, 4), (0, 0, 0))
        self.assertAlmostEqual(reference.curvature_value(
            simplex.facets(), [0.7, 1.1, 0.9]), 12 / 4, places=12)
        box = Shape("box", (2, 5), (1, -1))
        self.assertAlmostEqual(reference.curvature_value(
            box.facets(), [1.7, 0.3]), 2 / 2 + 2 / 5, places=12)

    def test_flow_reference_vanishes_at_infinity(self):
        shape = Shape("box", (2, 3), (0, 0))
        d1, g1 = reference.flow_value(shape.facets(), 1, [0.8, 1.2], 1.0)
        d2, g2 = reference.flow_value(shape.facets(), 1, [0.8, 1.2], 1e6)
        self.assertLess(d2, 1e-5 * d1)
        self.assertLess(g2, 1e-5 * max(g1, 1e-300) + 1e-12)


class HeldOutSeedTest(unittest.TestCase):
    def test_held_out_seed_runs_clean(self):
        for name in workloads.WORKLOADS:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(HELD_OUT_SEED), "--seconds", "1", "--trace", "0"],
                capture_output=True, text=True, timeout=170)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            result = json.loads(proc.stdout.splitlines()[-1])
            self.assertTrue(result["correct"], proc.stderr)
            self.assertEqual(result["failed"], WIDE_KNOWN_FAILURES
                             if name == "norms-wide" else 0, proc.stderr)


if __name__ == "__main__":
    unittest.main()
