"""The ghzline command line: the four subcommands, over config and sweep.

Subcommands:

* ``simulate``: a one-point sweep, one row per segment in file order,
  printed as a rate report,
* ``sweep``: Cartesian (f_D, f_G) x memory-mode grid written to CSV/JSON,
* ``yields``: per-segment yield with and without memories, plus the ratio,
* ``mc-check``: every closed-form expectation against its sampling oracle.

Exit status is 0 on success, 1 when mc-check finds a deviation beyond
three standard errors or when a sweep wrote failed (NaN) rows, and 2 on
validation or runtime errors, including a simulate point that could not
be evaluated.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from functools import cache
from pathlib import Path

from .config import data_path, load_config
from .netmodel import (
    TrioConfig,
    expected_coherence_near,
    expected_max_geometric,
    window_click_probs,
    yield_memoryless,
    yield_with_memory,
)

# numpy and the engine (sweep, mc) are imported in the functions that use
# them, after the config has loaded, so that yields and config errors run
# without loading numpy.

# Most samples per mc-check: a count a run can finish.  A report on the
# bundled file takes about 0.1 s per 10^6 samples, so 10^12 is about a day.
MAX_SAMPLES = 10**12


def _csv_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    return "" if value is None else f"{float(value):.17g}"


def yields_report(configs) -> list[dict]:
    """Per-segment yield summary: memoryless, memory-assisted, and ratio."""
    out = []
    for cfg in sorted(configs, key=lambda c: c.name):
        y = yield_memoryless(cfg)
        if cfg.memory is not None:
            if y == 0.0:
                raise ValueError(
                    f"segment {cfg.name}: memoryless yield underflows to 0, "
                    "so the memory ratio is undefined"
                )
            y_qm = yield_with_memory(cfg)
            ratio = y_qm / y
        else:
            y_qm = None
            ratio = None
        out.append({"segment": cfg.name, "yield": y, "yield_memory": y_qm, "ratio": ratio})
    return out


def _mc_check_entry(
    name: str,
    segment: str,
    formula: float,
    mc: McResult,
    null_stderr: float | None = None,
) -> dict:
    """Flag the check when the estimate sits > 3 standard errors off.

    ``null_stderr`` is the standard error implied by the formula itself
    (known exactly for Bernoulli estimators); it keeps the test valid in
    the rare-success regime, where the sample variance can be zero.  The
    1e-12 floor absorbs float noise of (near-)deterministic estimators.
    """
    deviation = mc.estimate - formula
    test_stderr = mc.standard_error if null_stderr is None else null_stderr
    z = deviation / test_stderr if test_stderr > 0.0 else None
    within = abs(deviation) <= max(3.0 * test_stderr, 1e-12)
    return {
        "check": name,
        "segment": segment,
        "formula": formula,
        "estimate": mc.estimate,
        "standard_error": mc.standard_error,
        "test_standard_error": test_stderr,
        "num_samples": mc.num_samples,
        "seed": mc.seed,
        "deviation": deviation,
        "z_score": z,
        "within_3_sigma": within,
    }


def mc_report(configs, num_samples: int = 10**6, seed: int = 0) -> dict:
    """Machine-readable comparison of every closed form with its MC oracle.

    A check is flagged when the sampled mean sits more than three standard
    errors from the formula (zero-variance estimators must agree to 1e-12).
    """
    from .mc import mc_coherence_near, mc_expected_max, mc_yield_memoryless

    checks = []
    for i, cfg in enumerate(sorted(configs, key=lambda c: c.name)):
        base = seed + 3 * i
        p = window_click_probs(cfg, with_memory=False)
        checks.append(
            _mc_check_entry(
                "expected_max_outer",
                cfg.name,
                expected_max_geometric(p["A"], p["C"]),
                mc_expected_max(p["A"], p["C"], num_samples, base),
            )
        )
        y = yield_memoryless(cfg)
        checks.append(
            _mc_check_entry(
                "yield_memoryless",
                cfg.name,
                y,
                mc_yield_memoryless(cfg, num_samples, base + 1),
                null_stderr=math.sqrt(y * (1.0 - y) / num_samples),
            )
        )
        if cfg.memory is not None:
            checks.append(
                _mc_check_entry(
                    "coherence_near",
                    cfg.name,
                    expected_coherence_near(cfg),
                    mc_coherence_near(cfg, num_samples, base + 2),
                )
            )
    return {
        "num_samples": num_samples,
        "seed": seed,
        "num_checks": len(checks),
        "num_deviations": sum(1 for c in checks if not c["within_3_sigma"]),
        "checks": checks,
    }


def _write_out(text: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _load_configs(args) -> list[TrioConfig]:
    path = args.config if args.config is not None else data_path()
    configs = load_config(path)
    if args.segment is not None:
        configs = [c for c in configs if c.name == args.segment]
        if not configs:
            raise ValueError(f"no segment named {args.segment!r} in {path}")
    return configs


def _format_report_text(row: RateReport) -> str:
    mode = "on" if row.memory else "off"
    t2 = "" if row.t2_s is None else f", T2={row.t2_s:g} s"
    lines = [
        f"{row.segment}  (memory {mode}{t2}, f_D={row.f_d:g}, f_G={row.f_g:g})",
        f"  yield per attempt : {row.yield_per_attempt:.6g}",
        f"  fidelity          : {row.fidelity:.6g}",
        f"  Q_X               : {row.q_x:.6g}",
        f"  Q_AB              : {row.q_ab:.6g}",
        f"  key rate / attempt: {row.r_per_attempt:.6g}",
        f"  key rate / second : {row.r_per_second:.6g}",
    ]
    return "\n".join(lines) + "\n"


# The option behind each SweepSpec field that simulate and sweep set.
SPEC_FLAGS = {"fd_range": "--fd", "fg_range": "--fg", "t2_values": "--t2"}


def _sweep_spec(**fields) -> SweepSpec:
    """SweepSpec from command-line values; a field out of range is
    reported by the option the user typed."""
    from .sweep import SpecError, SweepSpec

    try:
        return SweepSpec(**fields)
    except SpecError as exc:
        raise ValueError(f"{SPEC_FLAGS[exc.field]}: {exc.problem}") from None


def _cmd_simulate(args) -> int:
    configs = _load_configs(args)
    from .sweep import render_json, run_sweep

    spec = _sweep_spec(
        fd_range=(args.fd, args.fd, 1),
        fg_range=(args.fg, args.fg, 1),
        memory_modes=("on",) if args.memory else ("off",),
        t2_values=() if args.t2 is None else (args.t2,),
    )
    # one sweep per segment: run_sweep orders segments by name, the report
    # keeps the file's order
    rows = [row for cfg in configs for row in run_sweep([cfg], spec)]
    failed = [r for r in rows if r.error is not None]
    for r in failed:
        print(f"error: {r.segment}: {r.error}", file=sys.stderr)
    if failed:
        return 2
    if args.format == "json":
        _write_out(render_json(rows), args.out)
    else:
        _write_out("".join(_format_report_text(r) for r in rows), args.out)
    return 0


def _parse_axis(text: str, flag: str | None = None) -> tuple[float, float, int]:
    """(min, max, steps) of a VALUE or MIN:MAX:STEPS axis; a malformed one
    raises ValueError naming ``flag``."""
    parts = text.split(":")
    try:
        if len(parts) == 1:
            x = float(parts[0])
            return (x, x, 1)
        if len(parts) == 3:
            return (float(parts[0]), float(parts[1]), int(parts[2]))
    except ValueError:
        pass
    prefix = f"{flag}: " if flag else ""
    raise ValueError(f"{prefix}axis must be VALUE or MIN:MAX:STEPS, got {text!r}")


def _cmd_sweep(args) -> int:
    configs = _load_configs(args)
    from .sweep import emit, run_sweep

    if args.memory is None:
        modes: tuple[str, ...] = ("off", "on")
    else:
        modes = ("on",) if args.memory else ("off",)
    spec = _sweep_spec(
        fd_range=_parse_axis(args.fd, "--fd"),
        fg_range=_parse_axis(args.fg, "--fg"),
        memory_modes=modes,
        t2_values=tuple(args.t2 or ()),
    )
    rows = run_sweep(configs, spec)
    out = emit(rows, args.format, args.out)
    failed = sum(1 for r in rows if r.error is not None)
    note = f" ({failed} rows failed)" if failed else ""
    print(f"wrote {len(rows)} rows to {out}{note}")
    return 1 if failed else 0


def _cmd_yields(args) -> int:
    report = yields_report(_load_configs(args))
    if args.format == "json":
        _write_out(json.dumps(report, indent=1) + "\n", args.out)
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        columns = ("segment", "yield", "yield_memory", "ratio")
        writer.writerow(columns)
        writer.writerows([_csv_cell(r[column]) for column in columns] for r in report)
        _write_out(buf.getvalue(), args.out)
    else:
        width = max(len(r["segment"]) for r in report)
        lines = [f"{'segment':<{width}}  {'yield':>10}  {'with memory':>12}  {'ratio':>8}"]
        for r in report:
            y_qm = "-" if r["yield_memory"] is None else f"{r['yield_memory']:.3g}"
            ratio = "-" if r["ratio"] is None else f"{r['ratio']:.3g}"
            lines.append(f"{r['segment']:<{width}}  {r['yield']:>10.3g}  {y_qm:>12}  {ratio:>8}")
        _write_out("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_mc_check(args) -> int:
    configs = _load_configs(args)
    if args.samples < 1:
        raise ValueError(f"--samples: must be >= 1, got {args.samples}")
    if args.samples > MAX_SAMPLES:
        raise ValueError(f"--samples: must be <= {MAX_SAMPLES}, got {args.samples}")
    if args.seed < 0:
        raise ValueError(f"--seed: must be >= 0, got {args.seed}")
    report = mc_report(configs, num_samples=args.samples, seed=args.seed)
    _write_out(json.dumps(report, indent=1) + "\n", args.out)
    if report["num_deviations"]:
        print(
            f"{report['num_deviations']} of {report['num_checks']} checks "
            "deviate by more than 3 standard errors",
            file=sys.stderr,
        )
        return 1
    return 0


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="ghzline",
        description="Three-party entangled-state distribution over fiber segments: "
        "yields, fidelities, and conference key rates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--config",
        type=Path,
        default=None,
        help="segment configuration file (default: bundled four-segment line)",
    )
    common.add_argument("--segment", default=None, help="restrict to one segment by name")

    sim = sub.add_parser(
        "simulate", parents=[common], help="one-point sweep, one rate report per segment"
    )
    sim.add_argument("--fd", type=float, default=0.0, help="transit depolarization strength")
    sim.add_argument("--fg", type=float, default=0.0, help="merge-gate failure probability")
    sim.add_argument(
        "--memory",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="run the memory-assisted variant",
    )
    sim.add_argument(
        "--t2", type=float, default=None, help="memory T2 in seconds for --memory rows"
    )
    sim.add_argument("--format", choices=("text", "json"), default="text")
    sim.add_argument("--out", type=Path, default=None, help="write to file instead of stdout")
    sim.set_defaults(func=_cmd_simulate)

    sw = sub.add_parser("sweep", parents=[common], help="grid sweep over the noise knobs")
    sw.add_argument("--fd", default="0:0.3:11", help="f_D axis, VALUE or MIN:MAX:STEPS")
    sw.add_argument("--fg", default="0:0.3:11", help="f_G axis, VALUE or MIN:MAX:STEPS")
    sw.add_argument(
        "--memory",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="--memory for memory-only rows, --no-memory for memoryless only; default both",
    )
    sw.add_argument(
        "--t2",
        type=float,
        action="append",
        default=None,
        help="memory T2 in seconds (repeatable); default: each segment's configured T2",
    )
    sw.add_argument(
        "--seed",
        type=int,
        default=0,
        help="deprecated and ignored: the sweep is deterministic",
    )
    sw.add_argument("--format", choices=("csv", "json"), default="csv")
    sw.add_argument("--out", type=Path, required=True, help="output file")
    sw.set_defaults(func=_cmd_sweep)

    yl = sub.add_parser(
        "yields", parents=[common], help="per-segment yields with and without memories"
    )
    yl.add_argument("--format", choices=("table", "csv", "json"), default="table")
    yl.add_argument("--out", type=Path, default=None, help="write to file instead of stdout")
    yl.set_defaults(func=_cmd_yields)

    mc = sub.add_parser(
        "mc-check", parents=[common], help="Monte Carlo oracles vs the closed forms"
    )
    mc.add_argument("--samples", type=int, default=10**6, help="samples per check")
    mc.add_argument("--seed", type=int, default=0, help="base RNG seed")
    mc.add_argument("--out", type=Path, default=None, help="write report to file")
    mc.set_defaults(func=_cmd_mc_check)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
