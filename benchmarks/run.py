#!/usr/bin/env python3
"""Run one benchmark workload against the ghzline package in this checkout.

    python3 benchmarks/run.py --workload sweep-grid --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from ``src/``
there and from nowhere else.  One client issues requests in a closed loop
(each starts when the previous one returns) for ``--seconds`` seconds and
checks every output.  Human-readable lines come first; the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  Exit status is 0 when every output was
correct, 1 when some failed, 2 when the package cannot be loaded.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
MODULES = ("cli", "density", "mc", "netmodel", "protocol", "rates")
# Set-ups per run, back to back: half before the requests, half after.
SETUP_RUNS = 10
CHILD_LIMIT_S = 120.0
SETUP_CODE = "import sys, ghzline.cli; ghzline.cli.load_config(sys.argv[1])"
# One client thread, and no thread pools behind it: THREADS=1 keeps
# run_sweep serial, the BLAS variables keep numpy single-threaded.
PINNED_ENV = {
    "THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

END_TO_END = {
    "setup_s": "s",
    "items_per_probe": "items/probe",
    "peak_rss_mib": "MiB",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in print order."""
    units = {}
    for target in tracing.TARGETS:
        name = tracing.metric_name(target)
        units[f"{name}.calls_per_op"] = "calls/op"
        units[f"{name}.self_s"] = "s/op"
    units["mc.samples"] = "samples/op"
    units[f"{tracing.ROOT}.self_s"] = "s/op"
    for name in tracing.IMPORTS + (tracing.PACKAGE,):
        units[f"import.{name}_s"] = "s"
    units["trace.overhead_ratio"] = "ratio"
    return units


def child_env() -> dict[str, str]:
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def load_package() -> dict:
    """Import the package modules from ``src/`` of this checkout only."""
    os.environ.update(PINNED_ENV)
    sys.path.insert(0, str(SRC))
    modules = {name: importlib.import_module(f"ghzline.{name}") for name in MODULES}
    origin = Path(modules["cli"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"ghzline was imported from {origin}, not from {SRC}")
    return modules


def machine_info() -> dict:
    """Where a result was measured; numpy must already be imported, after
    PINNED_ENV is set."""
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = "unknown"  # a checkout without git history has no commit to report
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
    }


def setup_once() -> float:
    """Wall seconds for a fresh interpreter to import ghzline.cli and load
    the segment file."""
    return timed_child([sys.executable, "-c", SETUP_CODE, str(workloads.CONFIG_PATH)])


def timed_child(argv: list[str]) -> float:
    """Wall seconds from start to exit of a child that must succeed.

    ``Popen.wait`` with a timeout polls in steps of up to 50 ms, which
    would quantize the measurement; this waits without one and leaves the
    time limit to a watchdog thread that kills the child after CHILD_LIMIT_S."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=child_env())
    watchdog = threading.Timer(CHILD_LIMIT_S, proc.kill)
    watchdog.start()
    try:
        status = proc.wait()
    finally:
        watchdog.cancel()
    elapsed = time.perf_counter() - t0
    if status != 0:
        raise subprocess.CalledProcessError(status, argv)
    return elapsed


class Loop:
    """Latencies, probe times, ops and failures of the requests one lane
    issued.

    Requests are grouped into blocks of ``workload.stride`` consecutive
    requests, the smallest run of requests that holds the workload's mix.
    """

    def __init__(self, workload) -> None:
        self.workload = workload
        self.stride = workload.stride
        self.latencies: list[float] = []
        self.probes: list[float] = []
        self.items = 0
        self.ops = 0
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def block(self, call) -> None:
        """Issue one block of requests."""
        for _ in range(self.stride):
            self.step(call)

    def step(self, call) -> None:
        """Time the workload's probe, then one request, then check the
        request's output untimed."""
        workload = self.workload
        t0 = time.perf_counter()
        workload.probe()
        t1 = time.perf_counter()
        result = call()
        self.latencies.append(time.perf_counter() - t1)
        self.probes.append(t1 - t0)
        self.items += workload.items_per_call
        self.ops += workload.ops_per_call
        attempted, failed, messages = workload.check(result)
        self.attempted += attempted
        self.failed += failed
        self.messages += messages[: 5 - len(self.messages)]

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)

    def blocks(self, times: list[float]) -> list[float]:
        """``times`` summed over each complete block."""
        n = len(times) // self.stride * self.stride
        return [sum(times[i : i + self.stride]) for i in range(0, n, self.stride)]

    def items_per_probe(self) -> float:
        """Items done in the time of one probe: items per request times the
        median, over blocks, of the block's probe time over its request
        time.  A block's probes and requests share the host's state of the
        moment, so its slow spells cancel in the ratio."""
        ratios = [p / r for p, r in zip(self.blocks(self.probes), self.blocks(self.latencies))]
        return self.workload.items_per_call * statistics.median(ratios)


def drive(seconds: float, one_round) -> None:
    """Closed loop: call ``one_round()`` until ``seconds`` have passed, at
    least once."""
    start = time.perf_counter()
    while True:
        one_round()
        if time.perf_counter() - start >= seconds:
            return


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(loop: Loop, setup: list[float]) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup),
        "items_per_probe": loop.items_per_probe(),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer: tracing.Tracer, traced: Loop, plain: Loop, imports: dict) -> dict:
    values = {}
    for target in tracing.TARGETS:
        name = tracing.metric_name(target)
        values[f"{name}.calls_per_op"] = tracer.calls[name] / traced.ops
        values[f"{name}.self_s"] = tracer.self_s[name] / traced.ops
    values["mc.samples"] = tracer.samples / traced.ops
    values[f"{tracing.ROOT}.self_s"] = tracer.self_s[tracing.ROOT] / traced.ops
    for name, seconds in imports.items():
        values[f"import.{name}_s"] = seconds
    # Each traced block runs right after an untraced one: compare them in pairs.
    pairs = zip(traced.blocks(traced.latencies), plain.blocks(plain.latencies))
    values["trace.overhead_ratio"] = statistics.median(t / p for t, p in pairs)
    return values


def report(loops: list[Loop], metrics: dict[str, float], units: dict[str, str]) -> bool:
    """Print the human-readable lines, then the result line; True if correct."""
    workload = loops[0].workload
    attempted = sum(loop.attempted for loop in loops)
    failed = sum(loop.failed for loop in loops)
    for loop in loops:
        for message in loop.messages:
            print(f"FAILED {message}")
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    print(f"fail_ratio = {failed / attempted:.6g} ({failed} failed of {attempted} attempted)")
    if isinstance(workload, workloads.McCheck):
        print(f"mc-check 3-sigma flags from the CLI: {workload.flags_3sigma}")
    correct = failed == 0 and attempted > 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return correct


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        modules = load_package()
    except ImportError as exc:
        print(f"error: cannot load the ghzline package: {exc}", file=sys.stderr)
        return 2
    print("machine " + json.dumps(machine_info()))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    OUT_DIR.mkdir(exist_ok=True)
    ctx = workloads.Context(modules=modules, seed=args.seed, out_dir=OUT_DIR)

    if not args.trace:
        workload = workloads.WORKLOADS[args.workload](ctx)
        workload.warmup()
        loop = Loop(workload)
        # Set-ups run back to back, apart from the requests, at both ends of
        # the run, so that their median samples the machine twice.
        setup = [setup_once() for _ in range(SETUP_RUNS // 2)]
        drive(args.seconds, lambda: loop.block(workload.call))
        setup += [setup_once() for _ in range(SETUP_RUNS - len(setup))]
        lat_ms = [1e3 * x for x in loop.latencies]
        print(f"setup runs (s): {' '.join(f'{x:.4f}' for x in setup)}")
        print(f"{len(lat_ms)} requests, {loop.ops} ops, {loop.items} items in {loop.busy_s:.3f} s busy")
        # Not gated: on a shared machine these move by 15-40% between runs.
        print(
            f"items per second {loop.items / loop.busy_s:.6g}, "
            f"probe p50 {1e3 * statistics.median(loop.probes):.6g} ms"
        )
        print(
            f"latency p50 {statistics.median(lat_ms):.6g} ms, p99 {percentile(lat_ms, 99):.6g} ms "
            f"over {len(lat_ms)} requests"
        )
        if isinstance(workload, workloads.PointQueries):
            pt_ms = [1e3 * x for x in workload.point_latencies]
            print(
                f"full_report latency p50 {statistics.median(pt_ms):.6g} ms, "
                f"p99 {percentile(pt_ms, 99):.6g} ms over {len(pt_ms)} points"
            )
        metrics = end_to_end(loop, setup)
        return 0 if report([loop], metrics, END_TO_END) else 1

    imports = tracing.import_times(child_env())
    workload = workloads.WORKLOADS[args.workload](ctx)
    workload.warmup()
    plain, traced, tracer = Loop(workload), Loop(workload), tracing.Tracer()

    def one_round() -> None:
        # Alternating blocks let both lanes see the same drift of the
        # machine; the wrappers are in place only for the traced block.
        plain.block(workload.call)
        tracer.install()
        try:
            traced.block(lambda: tracer.root(workload.call))
        finally:
            tracer.uninstall()

    drive(args.seconds, one_round)
    for target in tracer.absent:
        print(f"absent {tracing.PACKAGE}.{target}: reported as 0")
    print(f"traced {len(traced.latencies)} requests, {traced.ops} ops")
    metrics = per_layer(tracer, traced, plain, imports)
    return 0 if report([plain, traced], metrics, per_layer_units()) else 1


if __name__ == "__main__":
    sys.exit(main())
