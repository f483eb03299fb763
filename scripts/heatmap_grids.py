#!/usr/bin/env python3
"""Emit one plot-ready noise heatmap CSV per segment.

Each output file is a full (f_D, f_G) grid over [0, 0.3]^2 with both
memory modes, suitable for pivoting into fidelity or key-rate heatmaps.
No figures are rendered here; downstream notebooks own the plotting.
Exit status is 1 if any grid point failed (a NaN row), as for ``sweep``.
"""

import argparse
import sys
from pathlib import Path

from ghzline.config import data_path, load_config
from ghzline.sweep import SweepSpec, emit, run_sweep


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", type=Path, default=None,
                        help="segment configuration file (default: bundled line)")
    parser.add_argument("--outdir", type=Path, default=Path("heatmaps"),
                        help="directory for the per-segment CSV files")
    parser.add_argument("--steps", type=int, default=21,
                        help="grid resolution per axis (default 21)")
    parser.add_argument("--t2", type=float, action="append", default=None,
                        help="memory T2 in seconds (repeatable); default: configured T2")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    configs = load_config(args.config if args.config else data_path())
    spec = SweepSpec(
        fd_range=(0.0, 0.3, args.steps),
        fg_range=(0.0, 0.3, args.steps),
        t2_values=tuple(args.t2 or ()),
    )
    args.outdir.mkdir(parents=True, exist_ok=True)
    failed_total = 0
    for cfg in configs:
        rows = run_sweep([cfg], spec)
        out = emit(rows, "csv", args.outdir / f"{cfg.name}.csv")
        failed = sum(1 for r in rows if r.error is not None)
        failed_total += failed
        note = f"  ({failed} rows failed)" if failed else ""
        print(f"{cfg.name}: {len(rows)} rows -> {out}{note}")
    return 1 if failed_total else 0


if __name__ == "__main__":
    sys.exit(main())
