#!/usr/bin/env python3
"""Scan the memory retrieval efficiency and tabulate the yield gain.

For each segment the memory-assisted yield is recomputed on an eta_QM
grid while everything else stays at its configured value; the emitted CSV
holds the memoryless baseline and the gain ratio at every grid point.
"""

import argparse
import csv
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from ghzline import yield_memoryless, yield_with_memory
from ghzline.config import data_path, load_config


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", type=Path, default=None,
                        help="segment configuration file (default: bundled line)")
    parser.add_argument("--out", type=Path, default=Path("memory_gain.csv"),
                        help="output CSV path")
    parser.add_argument("--points", type=int, default=20,
                        help="number of eta_QM grid points on (0, 1] (default 20)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.points < 1:
        print("error: --points must be >= 1", file=sys.stderr)
        return 2
    configs = load_config(args.config if args.config else data_path())
    grid = np.linspace(1.0 / args.points, 1.0, args.points)

    args.out.parent.mkdir(parents=True, exist_ok=True)
    with args.out.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["segment", "eta_qm", "yield", "yield_memory", "ratio"])
        for cfg in sorted(configs, key=lambda c: c.name):
            if cfg.memory is None:
                print(f"{cfg.name}: no memory section, skipped", file=sys.stderr)
                continue
            y = yield_memoryless(cfg)
            for eta in grid:
                probe = replace(cfg, memory=replace(cfg.memory, efficiency=float(eta)))
                y_qm = yield_with_memory(probe)
                writer.writerow([cfg.name, f"{eta:.17g}", f"{y:.17g}",
                                 f"{y_qm:.17g}", f"{y_qm / y:.17g}"])
            print(f"{cfg.name}: {args.points} points, baseline yield {y:.3g}")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
