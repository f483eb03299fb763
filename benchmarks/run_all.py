#!/usr/bin/env python3
"""Run every workload, untraced and traced, and print every metric.

    python3 benchmarks/run_all.py [--seed 0]

Each run is a separate ``run.py`` process, started with the arguments
BENCHMARK.json describes, for its ``run_seconds``.  The output of each run is passed through, then one table
lists every metric of every workload with its unit and each workload's
fail_ratio.  Exit status is 0 only if every run exited 0 with every output
correct.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_one(workload: str, seed: int, seconds: float, trace: int) -> tuple[int, str, dict | None]:
    """Run one workload the way BENCHMARK.json says; (status, stdout, result)."""
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return proc.returncode, proc.stdout + proc.stderr, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    ok = True
    table = []
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            status, output, result = run_one(workload, args.seed, SPEC["run_seconds"], trace)
            print(output, end="", flush=True)
            if status != 0 or result is None or not result["correct"]:
                ok = False
                table.append(f"{workload:14s} trace {trace}: FAILED (exit {status})")
                continue
            ratio = result["failed"] / result["attempted"]
            table.append(f"{workload:14s} trace {trace}: fail_ratio {ratio:g} of {result['attempted']}")
            for name, m in result["metrics"].items():
                table.append(f"{workload:14s} {name:40s} {m['value']:14.6g} {m['unit']}")
    print("\n".join(table))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
