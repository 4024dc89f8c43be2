"""Self-test of the benchmark's correctness checks.

    python3 perfbench/selftest.py

Runs the start of pass 0 of every workload in this process, on two seeds,
and requires every op to pass its check.  Then it corrupts the oracle
(each reference function returns a slightly wrong answer), runs the same
ops again and requires the error rate to rise above 0 on every workload.
Exits 0 when both hold.
"""

import contextlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

# Ops per workload (all of cli-mix, so every verb is checked), few enough
# to keep the test near a minute.
LIMITS = {"reconstruct-long": 2, "subgroup-cold": 40}


def error_rate(workload, seed):
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="selftest-", dir=out_dir) as workdir:
        ops, _ = workloads.build(workload, seed, 0, workdir)
        rows, _ = worker.run_ops(ops[: LIMITS.get(workload)])
    return sum(1 for row in rows if row[2]) / len(rows)


def _off_by_one(fn):
    def wrong(*args):
        result = fn(*args)
        if isinstance(result, list):
            return result[:-1] + [result[-1] + 1]
        return result + 1

    return wrong


@contextlib.contextmanager
def corrupted_oracle():
    names = ("eta_unit_product", "unit_exponential", "cyclotomic_trace", "psl2_index")
    saved = {name: getattr(oracle, name) for name in names}
    try:
        for name, fn in saved.items():
            setattr(oracle, name, _off_by_one(fn))
        yield
    finally:
        for name, fn in saved.items():
            setattr(oracle, name, fn)


def main():
    ok = True
    for workload in workloads.BUILDERS:
        for seed in (1, 2):
            rate = error_rate(workload, seed)
            print(f"{workload} seed {seed}: error_rate {rate:.3f} (want 0)")
            ok &= rate == 0
        with corrupted_oracle():
            rate = error_rate(workload, 1)
        print(f"{workload} seed 1, corrupted oracle: error_rate {rate:.3f} (want > 0)")
        ok &= rate > 0
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
