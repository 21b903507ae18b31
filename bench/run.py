"""toricq benchmark: end-to-end and per-layer metrics of the CLI.

    python3 bench/run.py --workload {norms-deep,norms-wide,reports} \\
        --seed N --seconds S --trace {0,1}

Closed loop, one client, one process at a time: a pass runs the seeded
workload's commands through `toricq.cli.main(argv)` one after the other in
a fresh worker interpreter, so nothing cached carries from one pass to the
next, as for a CLI user.  Passes repeat until S seconds have gone by, and
every output is checked against references that do not use toricq (see
check.py and reference.py).  BLAS is pinned to one thread; the default
cell budget is used.

The last stdout line is one JSON object: correct, attempted, failed and
the metrics.  attempted is the number of commands in the workload and
failed the number of them that failed in any pass (see `score`).  --trace 0
gives the end-to-end metrics (medians over passes):

    wall_s       wall time of one pass over the command list
    setup_s      time for a fresh interpreter to import toricq.cli
    peak_rss_mb  peak RSS of the worker process of a pass
    ok_frac      share of the workload's commands that were correct in
                 every pass

Both times are scaled to a reference host speed measured during the timed
region itself (see worker.py); the unscaled pass times go to stderr.

--trace 1 alternates untraced passes with passes whose layers are wrapped
by tracing.py and gives the per-layer metrics, and trace.overhead_frac.

A command fails when an exception escapes `main`, its exit code is not
the expected one, an integral reports converged=False, a number is off its
reference by more than allowed, an exact output differs, or its stdout
differs between passes.  The failures expected today (the OverflowError
that `norms` raises for large |m|, and three wrong norms-wide values listed
in check.py) count as failed but leave `correct` true.  Any other failure
makes `correct` false.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from check import check, known_failure  # noqa: E402
from reference import References  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

SETUP_PROBES = 5
# a run, set-up and checks included, must end within 180 s
RUN_LIMIT_S = 175


class BenchError(RuntimeError):
    """The benchmark itself could not run."""


def worker_env():
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # toricq comes from ROOT/src only, with its default cell budget
    env.pop("PYTHONPATH", None)
    env.pop("TORICQ_CELL_BUDGET", None)
    return env


def run_worker(args, deadline):
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(ROOT)] + args,
            cwd=ROOT, env=worker_env(), capture_output=True, text=True,
            timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n"
                         f"{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_passes(commands_path, spans_path, seconds, trace, deadline):
    """Untraced passes, alternating with traced ones when trace is set,
    until `seconds` have passed and each kind ran at least once."""
    plain, traced = [], []
    stop = time.monotonic() + seconds
    while True:
        if trace and len(traced) < len(plain):
            traced.append(run_worker([str(commands_path), "--trace",
                                      str(spans_path)], deadline))
        else:
            plain.append(run_worker([str(commands_path)], deadline))
        if time.monotonic() >= stop and (traced or not trace):
            return plain, traced


def score(commands, passes, refs):
    """(attempted, failed, unexpected problems).  Each command of the
    workload is one operation, run once in every pass; it fails if its
    output is wrong in any pass or differs between passes.  So attempted
    and failed do not depend on how many passes fit in the run."""
    failed = 0
    problems = []
    for i, cmd in enumerate(commands):
        first = passes[0]["results"][i]
        verdict = check(cmd, first, refs)
        bad_passes = []
        for n, p in enumerate(passes):
            result = p["results"][i]
            bad = verdict
            if result["out"] != first["out"]:
                bad = [f"stdout differs from pass 0 in pass {n}"]
            if bad:
                bad_passes.append((result, bad))
        if bad_passes:
            failed += 1
            for result, bad in bad_passes:
                if not known_failure(cmd, result, bad):
                    problems.append(f"command {i} ({' '.join(cmd.argv)}): "
                                    + "; ".join(bad))
                    break
    return len(commands), failed, problems


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (ROOT / "src" / "toricq" / "cli.py").is_file():
        print(f"error: no toricq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # inputs are named relative to the checkout, where the workers run
    os.chdir(ROOT)
    workdir = HERE.relative_to(ROOT) / ".work" / f"{args.workload}-{args.seed}"
    wl = Workload(args.workload, args.seed, workdir)
    wl.write_inputs()
    commands_path = workdir / "commands.json"
    commands_path.write_text(json.dumps([c.argv for c in wl.commands]))
    refs = References()

    try:
        # the first import also writes the bytecode caches; not counted
        probes = [run_worker(["--import-only"], deadline)
                  for _ in range(SETUP_PROBES + 1)][1:]
        plain, traced = run_passes(commands_path, workdir / "spans.csv",
                                   args.seconds, args.trace, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed, problems = score(wl.commands, plain + traced, refs)
    for line in problems[:20]:
        print(f"FAIL {line}", file=sys.stderr)
    known = failed - len(problems)
    print(f"{args.workload} seed {args.seed}: {len(plain)} passes"
          f" + {len(traced)} traced, {len(wl.commands)} commands each,"
          f" {known} known failures, {len(problems)} other failures;"
          f" pass wall s scaled/unscaled: "
          f"{' '.join('%.3f/%.3f' % (p['wall_s'], p['wall_raw_s']) for p in plain)}",
          file=sys.stderr)

    if args.trace:
        values = {key: median(p["layers"][key] for p in traced)
                  for key in traced[0]["layers"]}
        values["trace.overhead_frac"] = (
            median(p["wall_s"] for p in traced)
            / median(p["wall_s"] for p in plain) - 1)
        print("self-time shares of traced wall time: " + ", ".join(
            f"{k} {v:.1%}" for k, v in list(traced[0]["shares"].items())[:12]),
            file=sys.stderr)
    else:
        values = {
            "wall_s": median(p["wall_s"] for p in plain),
            "setup_s": median([p["import_s"] for p in probes + plain]),
            "peak_rss_mb": median(p["peak_rss_mb"] for p in plain),
            "ok_frac": (attempted - failed) / attempted,
        }
    units = metric_units()
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in values.items()}}))
    return 0


def metric_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
