"""One pass of a benchmark workload, in a fresh interpreter.

Usage (started by run.py, one process per pass):

    python3 perfbench/worker.py --workload NAME --seed N --pass-index I
        --workdir DIR [--trace-out FILE] [--setup-only]

Imports gmfkit from ``src/`` next to this directory, builds the pass's
inputs and expected outputs (the set-up), then runs and checks every op.
Between ops it times the workload's probe (``PROBES``), with which run.py
scales the pass's times to a reference machine speed.  Prints one JSON
report on stdout.  With ``--trace-out`` the ops run under the span
recorder and the spans are written to that file at the end.
"""

import argparse
import gc
import json
import random
import resource
import statistics
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PROBE_EVERY_S = 1.0  # op time between two machine-speed probes
SETUP_PROBES = 3  # probes right after set-up, whose median scales setup_s


def _tuple_table():
    # subgroup-cold fills dicts keyed by 4-tuples of residues: many small
    # tables that stay in cache, and large ones that do not
    for size in [1000] * 80 + [40000]:
        table = {}
        for i in range(size):
            table[(i % 97, i, i % 13, 5)] = i
        del table


_SERIES = [Fraction(random.Random(i).getrandbits(40 * i + 8),
                    random.Random(-i).getrandbits(40 * i) | 1) for i in range(32)]


def _series_product():
    # reconstruct-long multiplies truncated series of rationals whose
    # height grows with the index
    a = _SERIES
    [sum(a[i] * a[n - i] for i in range(n + 1)) for n in range(len(a))]


def _small_mix():
    # cli-mix parses and prints JSON, and sums small Fractions in loops
    total = Fraction(0)
    for i in range(1, 700):
        total += Fraction(1, i)
    text = json.dumps([str(Fraction(i, i + 7)) for i in range(6000)])
    json.loads(text)
    acc = 0
    for i in range(200000):
        acc += i * i % 7


# Each workload's probe and a reference time for it, near its median on a
# 2-vCPU Intel Xeon VM under Python 3.11.  run.py multiplies a pass's op
# times by reference / the median of the probes taken during its ops, and
# its set-up time by reference / the median of the probes after set-up.
PROBES = {
    "reconstruct-long": (_series_product, 0.06),
    "cli-mix": (_small_mix, 0.045),
    "subgroup-cold": (_tuple_table, 0.04),
}


def probe(workload):
    """Seconds for the workload's probe: a fixed piece of interpreter work
    of the kind the workload does, that never calls gmfkit.

    Its time tracks how fast the machine runs that kind of work right now.
    It frees all it allocates and runs with the collector off, so it leaves
    the pass's heap and collector counts as it found them.
    """
    enabled = gc.isenabled()
    gc.disable()
    started = time.perf_counter()
    PROBES[workload][0]()
    seconds = time.perf_counter() - started
    if enabled:
        gc.enable()
    return seconds


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass-index", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import gmfkit  # noqa: F401  (timed: the import is part of set-up)
    import gmfkit.cli  # noqa: F401

    import_s = time.perf_counter() - start
    import workloads

    workdir = tempfile.mkdtemp(prefix=f"pass{args.pass_index}-", dir=args.workdir)
    ops, shape = workloads.build(args.workload, args.seed, args.pass_index, workdir)
    setup_s = time.perf_counter() - start
    report = {"import_s": import_s, "setup_s": setup_s, "shape": shape}
    report["setup_probe_s"] = statistics.median(probe(args.workload) for _ in range(SETUP_PROBES))
    if not args.setup_only:
        probes = []
        report["ops"], report["layers"] = run_ops(ops, args.trace_out, probes, args.workload)
        report["probe_s"] = statistics.median(probes)
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(report))


def run_ops(ops, trace_out=None, probes=None, workload=None):
    """Time and check every op; returns [kind, seconds, problem, key] rows and,
    when traced, the per-layer values.

    Whenever PROBE_EVERY_S of op time has passed, and after the last op,
    appends the workload's probe time to ``probes``: one probe per
    PROBE_EVERY_S of op time since the last probes, so that each second of
    op time weighs the same in their median, however long the ops are.
    """
    recorder = None
    if trace_out is not None:
        import tracer

        recorder = tracer.Recorder()
        recorder.install()
    rows, since = [], 0.0
    clock = time.perf_counter
    for index, op in enumerate(ops):
        started = clock()
        try:
            out = op.call() if recorder is None else recorder.run_op(index, op.kind, op.call)
        except Exception as exc:  # a failed op is counted, not fatal
            out, problem = None, f"{type(exc).__name__}: {exc}"
        else:
            problem = None
        seconds = clock() - started
        if problem is None:
            try:
                problem = op.check(out)
            except Exception as exc:  # malformed output fails its check
                problem = f"check raised {type(exc).__name__}: {exc}"
        rows.append([op.kind, seconds, problem, op.key])
        since += seconds
        if probes is not None and (since >= PROBE_EVERY_S or index == len(ops) - 1):
            probes.extend(probe(workload) for _ in range(max(1, round(since / PROBE_EVERY_S))))
            since = 0.0
    if recorder is None:
        return rows, None
    recorder.write(trace_out)
    return rows, recorder.metrics()


if __name__ == "__main__":
    main()
