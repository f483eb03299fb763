#!/usr/bin/env python3
"""Regenerate the reference outputs the benchmark checks against.

    python3 benchmarks/make_reference.py

Writes ``data/ref_sweep_grid.csv`` (the sweep-grid CSV exactly as the CLI
writes it) and ``data/ref_point_queries.csv`` (inputs and reports of the
first POINT_REFERENCE_SIZE points of the default-seed point-queries
stream).  Regenerate only when a change of the numbers is intended, and
say which values moved and why.
"""

from __future__ import annotations

import csv
import itertools
import shutil
import sys

import run
import workloads


def main() -> int:
    modules = run.load_package()
    run.OUT_DIR.mkdir(exist_ok=True)
    ctx = workloads.Context(modules=modules, seed=workloads.DEFAULT_SEED, out_dir=run.OUT_DIR)

    out = run.OUT_DIR / "reference-sweep.csv"
    status = modules["cli"].main(workloads.sweep_argv(out, workloads.DEFAULT_SEED))
    if status != 0:
        print(f"sweep exited with {status}", file=sys.stderr)
        return 1
    shutil.copyfile(out, workloads.SWEEP_REFERENCE)

    queries = workloads.PointQueries(ctx, reference=[])
    with workloads.POINT_REFERENCE.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(workloads.POINT_COLUMNS)
        for point in itertools.islice(queries.points, workloads.POINT_REFERENCE_SIZE):
            cfg, noise = queries.inputs(point)
            rep = modules["rates"].full_report(cfg, noise, use_memory=point.memory)
            writer.writerow(workloads.point_row(point, rep))
    print(f"wrote {workloads.SWEEP_REFERENCE} and {workloads.POINT_REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
