#!/usr/bin/env python3
"""Smoke test for the efd cycle benchmark.

Runs every workload at smoke size (2k prefixes, a dozen windows),
untraced and traced, through perfbench/run.py and asserts that the
correctness gate passed, that exactly the metrics BENCHMARK.json names
were printed, and that every per-layer time was measured (is above 0)
on every workload. A broken harness fails here in seconds.

    python3 perfbench/smoke_test.py
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
                   "--workload", workload, "--seed", "7", "--seconds", "5",
                   "--trace", str(trace), "--prefixes", "2000",
                   "--max-windows", "12"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            problems = []
            if proc.returncode != 0:
                problems.append(f"exit code {proc.returncode}")
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                result = None
                problems.append("last stdout line is not JSON")
            if result is not None:
                if result.get("correct") is not True:
                    problems.append("correctness gate failed")
                if result.get("failed") != 0 or result.get("attempted") != 12:
                    problems.append(
                        f"attempted={result.get('attempted')} "
                        f"failed={result.get('failed')}")
                got = {k: v.get("unit")
                       for k, v in result.get("metrics", {}).items()}
                if got != expected[trace]:
                    missing = sorted(set(expected[trace]) - set(got))
                    extra = sorted(set(got) - set(expected[trace]))
                    problems.append(f"metrics differ: missing={missing} "
                                    f"extra={extra}")
                # The tracing overhead is a difference of two medians and
                # may fall either side of 0.
                idle = sorted(k for k, v in result.get("metrics", {}).items()
                              if trace and v.get("unit") in ("ms", "us")
                              and k != "trace.overhead_ms"
                              and not v.get("value", 0) > 0)
                if idle:
                    problems.append(f"per-layer times not measured: {idle}")
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"{workload:12s} trace={trace}: {status}")
            if problems:
                failures += 1
                sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
