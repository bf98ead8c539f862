#!/usr/bin/env python3
"""efd cycle benchmark: build perfbench/ and run one workload.

Builds perfbench/ (which compiles the repository's src/ libraries) with
CMake, then runs one workload of efd_cycle_bench and passes its output
through; the last stdout line is the result JSON.

    python3 perfbench/run.py --workload steady --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under the checkout; journal and recovery files go
to a per-run directory under .bench_work/ that is removed when the run
ends, whatever the outcome. Traced runs keep their span file in
.bench_work/traces/.
"""
import argparse
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("steady", "churn")
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds efd_cycle_bench; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no library sources at {ROOT / 'src'}; run from a full checkout")
        sys.exit(2)
    target_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target_dir.is_absolute():
        target_dir = ROOT / target_dir
    build_dir = target_dir / "efd_cycle_bench"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "-j", jobs,
         "--target", "efd_cycle_bench"],
        check=True, stdout=sys.stderr)
    return build_dir / "efd_cycle_bench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    # Smoke-size knobs (perfbench/smoke_test.py); defaults are the
    # benchmark's real size.
    ap.add_argument("--prefixes", type=int)
    ap.add_argument("--max-windows", type=int)
    args = ap.parse_args()

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as err:
        log(f"build failed: {err}")
        return 2

    work = ROOT / ".bench_work"
    workdir = work / f"run-{os.getpid()}-{time.time_ns()}"
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)]
    if args.trace:
        traces = work / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.jsonl")]
    for flag, value in (("--prefixes", args.prefixes),
                        ("--max-windows", args.max_windows)):
        if value is not None:
            cmd += [flag, str(value)]

    proc = subprocess.Popen(cmd)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
        if code < 0:
            log(f"benchmark killed by signal {-code}")
            return 4
        return code
    except BaseException:
        proc.kill()
        proc.wait()
        log("benchmark did not finish; killed")
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
