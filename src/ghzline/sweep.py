"""Sweeps over the noise knobs and the sweep's row format.

``run_sweep`` evaluates a SweepSpec grid as rates.RateReport rows;
``emit`` writes them as CSV or JSON and ``parse_rows`` reads them back.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, replace
from itertools import product
from pathlib import Path

import numpy as np

from .netmodel import TrioConfig, require_memory
from .rates import RateReport, rate_reports

CSV_COLUMNS = (
    "segment", "f_D", "f_G", "memory", "T2_s", "yield",
    "fidelity", "Q_X", "Q_AB", "r_per_attempt", "r_per_second",
)
# (column, RateReport field) of every value a CSV or JSON row carries, in
# column order, which is RateReport's field order; rendering and parsing
# both go through this table.
ROW_COLUMNS = tuple(zip(CSV_COLUMNS, RateReport._fields))


class SpecError(ValueError):
    """A SweepSpec field is out of range: ``field`` names it, ``problem`` says how."""

    def __init__(self, field: str, problem: str) -> None:
        super().__init__(f"{field}: {problem}")
        self.field = field
        self.problem = problem


@dataclass(frozen=True)
class SweepSpec:
    """Cartesian sweep over the noise knobs and memory settings.

    Each range is (min, max, steps).  t2_values applies to memory-on rows;
    empty means each segment's configured T2.
    """

    fd_range: tuple[float, float, int] = (0.0, 0.3, 11)
    fg_range: tuple[float, float, int] = (0.0, 0.3, 11)
    memory_modes: tuple[str, ...] = ("off", "on")
    t2_values: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        for label, rng in (("fd_range", self.fd_range), ("fg_range", self.fg_range)):
            lo, hi, steps = rng
            if not 0.0 <= lo <= hi <= 1.0:
                # one value, as simulate and `--fd X` give; NaN too
                if int(steps) == 1 and (lo == hi or math.isnan(lo) and math.isnan(hi)):
                    raise SpecError(label, f"need 0 <= value <= 1, got {lo}")
                raise SpecError(label, f"need 0 <= min <= max <= 1, got {lo}..{hi}")
            if int(steps) < 1:
                raise SpecError(label, f"steps must be >= 1, got {steps}")
        modes = self.memory_modes
        if not modes or len(set(modes)) != len(modes):
            raise SpecError("memory_modes", f"must be nonempty and distinct, got {modes}")
        if any(m not in ("off", "on") for m in modes):
            raise SpecError("memory_modes", f"entries must be 'off' or 'on', got {modes}")
        if any(not t > 0.0 for t in self.t2_values):  # NaN too
            raise SpecError("t2_values", f"must be positive, got {self.t2_values}")
        if any(math.isinf(t) for t in self.t2_values):
            raise SpecError("t2_values", f"must be finite, got {self.t2_values}")
        if len(set(self.t2_values)) != len(self.t2_values):
            raise SpecError("t2_values", f"must be distinct, got {self.t2_values}")


def _axis(rng: tuple[float, float, int]) -> list[float]:
    lo, hi, steps = rng
    return [float(x) for x in np.linspace(lo, hi, int(steps))]


def _failed_rows(
    cfg: TrioConfig, fds: list[float], fgs: list[float], memory: bool, t2: float | None,
    error: str,
) -> list[RateReport]:
    """NaN rows of a block whose grid points could not be evaluated, with the reason."""
    nan = float("nan")
    return [
        RateReport(cfg.name, fd, fg, memory, t2, nan, nan, nan, nan, nan, nan, error)
        for fd, fg in product(fds, fgs)
    ]


def run_sweep(configs, spec: SweepSpec = SweepSpec()) -> list[RateReport]:
    """Evaluate the full grid, ordered by (segment, memory, T2, f_D, f_G).

    Each (segment, memory, T2) block of the (f_D, f_G) grid is evaluated
    by one engine call.  If that call raises ValueError, every point of
    the block gets a NaN row carrying the error text, and the sweep goes
    on.  Each ValueError the engine raises depends only on the block's
    segment, memory mode and T2, never on f_D or f_G, so it is also each
    point's own error.
    """
    fds, fgs = _axis(spec.fd_range), _axis(spec.fg_range)
    rows: list[RateReport] = []
    for cfg in sorted(configs, key=lambda c: c.name):
        for mode in ("off", "on"):
            if mode not in spec.memory_modes:
                continue
            memory = mode == "on"
            if not memory:
                t2s: list[float | None] = [None]
            elif spec.t2_values:
                t2s = sorted(spec.t2_values)
            else:  # the configured T2: the config as it is
                t2s = [cfg.memory.t2 if cfg.memory else None]
            for t2 in t2s:
                try:
                    block = cfg
                    if memory and spec.t2_values:
                        block = replace(cfg, memory=replace(require_memory(cfg), t2=t2))
                    rows += rate_reports(block, fds, fgs, use_memory=memory)
                except ValueError as exc:
                    error = f"{type(exc).__name__}: {exc}"
                    rows += _failed_rows(cfg, fds, fgs, memory, t2, error)
    return rows


def _json_float(x: float) -> float | None:
    x = float(x)
    return x if math.isfinite(x) else None


def _json_value(value):
    return value if value is None or isinstance(value, (str, bool)) else _json_float(value)


def row_as_dict(row: RateReport) -> dict:
    """Row as a JSON-ready mapping with the canonical column names."""
    d = {column: _json_value(getattr(row, field)) for column, field in ROW_COLUMNS}
    if row.error is not None:
        d["error"] = row.error
    return d




def _csv_quoted(text: str) -> str:
    """``text`` as csv.writer writes it among other cells: quoted when it
    holds a comma, quote or line break."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text, ""])
    return buf.getvalue()[:-2]  # less the empty cell's comma and the line end


# One CSV line of a row, cells in ROW_COLUMNS order: the quoted segment,
# f_D and f_G, the memory, T2 and yield cells as one text, then five floats.
# '%.17g' % x is the text of f"{float(x):.17g}", so every cell is cli._csv_cell's.
_CSV_LINE = "%s,%s,%s,%s" + ",%.17g" * 5 + "\n"


def render_csv(rows) -> str:
    """The header and one line per row, with the cells and quoting of
    csv.writer over cli._csv_cell.

    Consecutive rows holding the very same segment, memory, T2 and yield
    objects, as every row of a run_sweep block does, share the text of
    those cells, and each f_D and f_G float object, of which a run_sweep
    grid holds one per axis value, is written once.  The match is by
    identity, never by value: 0.0 == -0.0 but their texts differ.
    """
    quoted: dict[str, str] = {}
    # id of each f_D and f_G object written -> (the object, its text); the
    # entry holds the object, so that no other object can take its id
    axis: dict[int, tuple[float, str]] = {}
    lines = [",".join(CSV_COLUMNS) + "\n"]
    segment = memory = t2 = y = head = mid = None
    for seg, f_d, f_g, mem, t2_s, y_, fid, q_x, q_ab, r_a, r_s, _ in rows:
        if not (seg is segment and mem is memory and t2_s is t2 and y_ is y):
            segment, memory, t2, y = seg, mem, t2_s, y_
            head = quoted.get(segment)
            if head is None:
                head = quoted[segment] = _csv_quoted(segment)
            mid = "%s,%s,%.17g" % (
                "true" if memory else "false", "" if t2 is None else "%.17g" % t2, y)
        fd_cell = axis.get(id(f_d))
        if fd_cell is None:
            fd_cell = axis[id(f_d)] = (f_d, "%.17g" % f_d)
        fg_cell = axis.get(id(f_g))
        if fg_cell is None:
            fg_cell = axis[id(f_g)] = (f_g, "%.17g" % f_g)
        lines.append(_CSV_LINE % (head, fd_cell[1], fg_cell[1], mid, fid, q_x, q_ab, r_a, r_s))
    return "".join(lines)


def render_json(rows) -> str:
    return json.dumps([row_as_dict(r) for r in rows], indent=1) + "\n"


def emit(rows, fmt: str, path) -> Path:
    """Write rows to ``path``.  CSV floats carry 17 significant digits;
    JSON uses shortest round-trip rendering, which loses nothing."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be csv or json, got {fmt!r}")
    out = Path(path)
    out.write_text(render_csv(rows) if fmt == "csv" else render_json(rows))
    return out


def _float_or_none(value) -> float | None:
    if value is None or value == "":
        return None
    return float(value)


def _require_float(value) -> float:
    return float("nan") if value is None else float(value)


def _row_fields(values: dict, number, flag) -> dict:
    """RateReport fields of a row from its cells by column name; ``number``
    reads the float cells and ``flag`` the memory cell in the file format's
    encoding."""
    read = {"segment": str, "memory": flag, "t2_s": _float_or_none}
    return {field: read.get(field, number)(values[column]) for column, field in ROW_COLUMNS}


def parse_rows(path, fmt: str | None = None) -> list[RateReport]:
    """Read back an emit() file (format inferred from the suffix if omitted).

    CSV cannot carry error messages, so failed rows come back with NaN
    metrics and error=None.
    """
    p = Path(path)
    if fmt is None:
        fmt = "json" if p.suffix == ".json" else "csv"
    if fmt == "json":
        return [
            RateReport(**_row_fields(d, _require_float, bool), error=d.get("error"))
            for d in json.loads(p.read_text())
        ]
    with p.open(newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != list(CSV_COLUMNS):
            raise ValueError(f"unexpected CSV header in {p}: {reader.fieldnames}")
        return [RateReport(**_row_fields(d, float, lambda cell: cell == "true")) for d in reader]
