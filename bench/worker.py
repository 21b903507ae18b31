"""One measured pass in a fresh interpreter.

    python3 worker.py ROOT COMMANDS.json [--trace SPANS.csv]
    python3 worker.py ROOT --import-only

Times `import toricq.cli` from ROOT/src, then runs every argv in
COMMANDS.json through `toricq.cli.main`, one after the other, and prints
one JSON line: import time, pass wall time, peak RSS and per command the
exit code, any exception that escaped `main`, and stdout.  With --trace
the layers are wrapped first and the per-layer metrics are added.

Only the standard library is imported before toricq, so the import time
includes numpy and scipy as a CLI user pays it.

Host speed.  On a shared 2-core machine the speed of the same code drifts
by up to 1.9x over minutes, with the load of other tenants.  While a timed
region runs, a SAMPLE_EVERY_S interval timer runs a fixed loop and records
how long it took.  Times are reported twice: `*_raw_s` is the wall time
net of those samples, and `*_s` scales it by REFERENCE_SAMPLE_S over the
mean sample, i.e. to a host on which the loop takes REFERENCE_SAMPLE_S.
The samples cost under 1% of the region.
"""

import contextlib
import io
import json
import os
import resource
import signal
import sys
import time
import traceback

SAMPLE_EVERY_S = 0.05
REFERENCE_SAMPLE_S = 3e-4


def sample_loop():
    """Fixed interpreter work; returns how long it took."""
    t0 = time.perf_counter()
    table = {}
    x = 0
    for i in range(2000):
        x += (i * 7) % 13
        table[i & 63] = x
    return time.perf_counter() - t0


def host_timed(fn):
    """Run fn(); return (its wall time net of the speed samples, that time
    scaled to the reference host speed)."""
    samples = []
    previous = signal.signal(signal.SIGALRM,
                             lambda signum, frame: samples.append(sample_loop()))
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    start = time.perf_counter()
    try:
        fn()
    finally:
        elapsed = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    net = elapsed - sum(samples)
    if not samples:
        samples.append(sample_loop())
    return net, net * REFERENCE_SAMPLE_S * len(samples) / sum(samples)


def main():
    root = os.path.abspath(sys.argv[1])
    sys.path.insert(0, os.path.join(root, "src"))
    modules = {}

    def load():
        import toricq.cli
        modules["cli"] = toricq.cli

    out = {}
    out["import_raw_s"], out["import_s"] = host_timed(load)
    cli = modules["cli"]
    if not os.path.abspath(cli.__file__).startswith(root + os.sep):
        raise SystemExit(f"imported {cli.__file__}, not the copy under {root}")
    if sys.argv[2] == "--import-only":
        print(json.dumps(out))
        return

    with open(sys.argv[2]) as fh:
        commands = json.load(fh)
    tracer = None
    if len(sys.argv) > 4 and sys.argv[3] == "--trace":
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracing
        tracer = tracing.install()

    results = []

    def run_all():
        for i, argv in enumerate(commands):
            if tracer is not None:
                tracer.request = i
            stdout, stderr = io.StringIO(), io.StringIO()
            code = exc = None
            try:
                with contextlib.redirect_stdout(stdout), \
                        contextlib.redirect_stderr(stderr):
                    code = cli.main(argv)
            except Exception as e:  # one crashing command must not end the pass
                exc = f"{type(e).__name__}: {e}"
                stderr.write(traceback.format_exc())
            results.append({"code": code, "exc": exc, "out": stdout.getvalue(),
                            "err": stderr.getvalue()[-2000:]})

    out["wall_raw_s"], out["wall_s"] = host_timed(run_all)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["results"] = results
    if tracer is not None:
        nbytes = sum(len(r["out"].encode()) for r in results)
        out["layers"] = tracing.layer_metrics(tracer, nbytes)
        out["shares"] = tracing.self_shares(tracer, out["wall_raw_s"])
        tracer.write(sys.argv[4])
    print(json.dumps(out))


if __name__ == "__main__":
    main()
