"""gmfkit benchmark: one workload, one seed, printed metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see perfbench/README.md for why each exists):
reconstruct-long, cli-mix, subgroup-cold.

A run is a sequence of passes, each a fresh interpreter (worker.py) that
imports gmfkit from ``src/``, sets up its inputs and expected outputs, and
times and checks every op.  Passes start while the run's elapsed time
plus half a pass stays under ``--seconds``.

``--trace 0`` prints the end-to-end metrics; set-up is sampled in at least
five fresh interpreters and reported as the median.  Each op's time is the
median over the passes of its slot in the mix, and every time is scaled
by the workload's probe (worker.PROBES) to a reference machine speed, so
that the host's drift in speed from one run to the next cancels.  ``--trace 1`` runs
pass 0 twice, untraced and then traced, and prints the per-layer metrics
of the traced pass plus the ratio of the two op times.  Either way the
last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``, the full record with the
environment and input shape goes to ``.perfbench_out/``, and a wrong
output counts as a failed op.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracer
import worker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("reconstruct-long", "cli-mix", "subgroup-cold")
END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("latency_p50_ms", "ms"), ("peak_rss_mb", "MB"))
SETUP_SAMPLES = 5
RUN_BUDGET_S = 170  # every run, set-up included, ends well inside 180 s


class WorkerError(RuntimeError):
    pass


def run_worker(workload, seed, pass_index, workdir, deadline, trace_out=None, setup_only=False):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--pass-index", str(pass_index), "--workdir", workdir]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    if setup_only:
        cmd.append("--setup-only")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerError("out of time before the pass started")
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, env=env, cwd=ROOT)
    if proc.returncode != 0:
        raise WorkerError(f"pass {pass_index} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def timed_run(workload, seed, seconds, workdir, deadline):
    """Untraced passes until the time is spent; returns (reports, set-up samples)."""
    reports = []
    started = time.monotonic()
    while True:
        reports.append(run_worker(workload, seed, len(reports), workdir, deadline))
        elapsed = time.monotonic() - started
        if elapsed + elapsed / len(reports) / 2 >= seconds:
            break
    setups = [(r["setup_s"], r["setup_probe_s"]) for r in reports]
    extra = len(reports)
    while len(setups) < SETUP_SAMPLES:
        r = run_worker(workload, seed, extra, workdir, deadline, setup_only=True)
        setups.append((r["setup_s"], r["setup_probe_s"]))
        extra += 1
    return reports, setups


def percentile_ms(values, q):
    """q-th percentile in ms; None unless at least ten samples lie beyond it."""
    if len(values) * (100 - q) / 100 < 10:
        return None
    return statistics.quantiles(values, n=100)[q - 1] * 1000


def slot_medians(reports, scale):
    """{key: (kind, median seconds over the passes)} for each slot of the mix.

    Every pass runs every slot once, so a burst of machine noise that slows
    or speeds up one pass moves no slot's median when there are three or
    more passes.  ``scale`` maps a pass's report to the factor its times are
    multiplied by.
    """
    times = {}
    for report in reports:
        for kind, seconds, _problem, key in report["ops"]:
            times.setdefault(key, (kind, []))[1].append(seconds * scale(report))
    return {key: (kind, statistics.median(values)) for key, (kind, values) in times.items()}


def end_to_end(workload, reports, setups):
    rows = [row for r in reports for row in r["ops"]]
    ref = worker.PROBES[workload][1]
    seconds = [row[1] * ref / r["probe_s"] for r in reports for row in r["ops"]]
    slots = slot_medians(reports, lambda r: ref / r["probe_s"])
    typical = [t for _kind, t in slots.values()]
    metrics = {
        "setup_s": statistics.median(s * ref / p for s, p in setups),
        "ops_per_s": len(typical) / sum(typical),
        "latency_p50_ms": statistics.median(typical) * 1000,
        "peak_rss_mb": max(r["peak_rss_mb"] for r in reports),
    }
    units = dict(END_TO_END)
    unscaled = [t for _kind, t in slot_medians(reports, lambda r: 1.0).values()]
    # Defined on some workloads only, or diagnostics, so printed and recorded
    # but not in BENCHMARK.json, whose metrics every workload must report.
    extra = {
        "error_rate": (sum(1 for row in rows if row[2]) / len(rows), "ratio"),
        "probe_s": (statistics.median(r["probe_s"] for r in reports), "s"),
        "setup_s_unscaled": (statistics.median(s for s, _p in setups), "s"),
        "ops_per_s_unscaled": (len(unscaled) / sum(unscaled), "1/s"),
        "latency_p50_ms_unscaled": (statistics.median(unscaled) * 1000, "ms"),
    }
    p90 = percentile_ms(seconds, 90)
    if p90 is not None:
        extra["latency_p90_ms"] = (p90, "ms")
    if workload == "cli-mix":
        for kind in sorted({kind for kind, _t in slots.values()}):
            values = [t for k, t in slots.values() if k == kind]
            extra[f"{kind.replace('-', '_')}_p50_ms"] = (statistics.median(values) * 1000, "ms")
    return {k: (v, units[k]) for k, v in metrics.items()}, extra


def traced_run(workload, seed, workdir, deadline, trace_out):
    plain = run_worker(workload, seed, 0, workdir, deadline)
    traced = run_worker(workload, seed, 0, workdir, deadline, trace_out=trace_out)
    layers = traced["layers"]
    layers["cli.import_s"] = statistics.median([plain["import_s"], traced["import_s"]])
    layers["trace.overhead_ratio"] = (
        sum(row[1] for row in traced["ops"]) / traced["probe_s"]
        / (sum(row[1] for row in plain["ops"]) / plain["probe_s"])
    )
    units = dict(tracer.PER_LAYER)
    metrics = {name: (layers[name], units[name]) for name, _ in tracer.PER_LAYER}
    op_s = layers["trace.op_s"]
    shares = {f"{m}.share_of_op_time": (layers[f"{m}.self_s"] / op_s, "ratio")
              for m in tracer.MODULES if f"{m}.self_s" in layers}
    return [plain, traced], metrics, shares


def environment():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "gmfkit").rglob("*.py")):
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gmfkit" / "__init__.py").is_file():
        print(f"perfbench: no gmfkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_BUDGET_S
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        with tempfile.TemporaryDirectory(prefix="work-", dir=out_dir) as workdir:
            if args.trace:
                reports, metrics, extra = traced_run(args.workload, args.seed, workdir, deadline,
                                                     out_dir / f"spans-{tag}.json")
                setups = []
            else:
                reports, setups = timed_run(args.workload, args.seed, args.seconds, workdir, deadline)
                metrics, extra = end_to_end(args.workload, reports, setups)
    except (WorkerError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {args.workload} failed: {exc}", file=sys.stderr)
        return 1

    rows = [row for r in reports for row in r["ops"]]
    failed = [row for row in rows if row[2]]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(), "input_shape": reports[0]["shape"],
        "passes": len(reports), "ops": len(rows), "failed": len(failed),
        "failures": failed[:20], "setup_samples_s": setups,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in {**metrics, **extra}.items()},
    }
    (out_dir / f"run-{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(reports)} passes, {len(rows)} ops, {len(failed)} failed")
    print("environment " + json.dumps(record["environment"]))
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"  {name:<40} {value:>14.6g} {unit}")
    for kind, _seconds, problem, _key in failed[:5]:
        print(f"  FAILED {kind}: {problem}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(rows),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
