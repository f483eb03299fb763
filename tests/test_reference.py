"""Golden tests: the package reproduces the benchmark's reference outputs exactly.

``benchmarks/data/`` holds the bundled sweep CSV as the CLI wrote it and
the reports of 1000 seeded operating points, each float written by
``repr``.  Both are only read here.  Key rates clamped to exactly zero
leave no room for last-bit drift, so equality is byte for byte.
"""

import csv
import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

from ghzline.cli import load_config, main
from ghzline.protocol import NoiseParams
from ghzline.rates import full_report

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"
DATA_DIR = BENCH_DIR / "data"

REPORT_FIELDS = ("yield_per_attempt", "fidelity", "q_x", "q_ab", "r_per_attempt", "r_per_second")
VALUE_COLUMNS = ("yield", "fidelity", "Q_X", "Q_AB", "r_per_attempt", "r_per_second")


def _workloads():
    """The benchmark's workload module, for the sweep's argv."""
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH_DIR / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault(spec.name, module)  # its dataclasses look themselves up here
    spec.loader.exec_module(module)
    return module


def test_bundled_sweep_is_byte_identical(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(_workloads().sweep_argv(out, 0)) == 0
    assert out.read_bytes() == (DATA_DIR / "ref_sweep_grid.csv").read_bytes()


def test_point_reports_equal_reference_by_repr():
    configs = {c.name: c for c in load_config(DATA_DIR / "segments.yaml")}
    with (DATA_DIR / "ref_point_queries.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1000
    mismatches = []
    for row in rows:
        cfg = configs[row["segment"]]
        memory = row["memory"] == "true"
        if memory:
            cfg = replace(cfg, memory=replace(cfg.memory, t2=float(row["T2_s"])))
        noise = NoiseParams(channel_depol=float(row["f_D"]), gate_fail=float(row["f_G"]))
        report = full_report(cfg, noise, use_memory=memory)
        got = [repr(float(getattr(report, f))) for f in REPORT_FIELDS]
        expected = [row[c] for c in VALUE_COLUMNS]
        if got != expected:
            mismatches.append((row["index"], got, expected))
    assert not mismatches, mismatches[:3]
