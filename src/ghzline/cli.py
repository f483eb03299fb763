"""Command-line interface: config ingestion, sweeps, yield tables, MC checks.

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
import numbers
import operator
import re
import sys
from dataclasses import dataclass, replace
from functools import cache
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING

import yaml

from .netmodel import (
    SPEED_OF_LIGHT_FIBER,
    LinkParams,
    MemoryParams,
    NodeParams,
    SourceParams,
    TrioConfig,
    expected_coherence_near,
    expected_max_geometric,
    require_memory,
    transmission_from_db,
    window_click_probs,
    yield_memoryless,
    yield_with_memory,
)

# numpy and the engine modules (mc, protocol, rates) are imported in the
# functions that use them, so that yields and config validation run
# without loading numpy.
if TYPE_CHECKING:
    from .mc import McResult
    from .protocol import NoiseParams
    from .rates import RateReport

# (column, RateReport field) of every value a CSV or JSON row carries, in
# column order; rendering and parsing both go through this table.
ROW_COLUMNS = (
    ("segment", "segment"),
    ("f_D", "f_d"),
    ("f_G", "f_g"),
    ("memory", "memory"),
    ("T2_s", "t2_s"),
    ("yield", "yield_per_attempt"),
    ("fidelity", "fidelity"),
    ("Q_X", "q_x"),
    ("Q_AB", "q_ab"),
    ("r_per_attempt", "r_per_attempt"),
    ("r_per_second", "r_per_second"),
)
CSV_COLUMNS = tuple(column for column, _ in ROW_COLUMNS)

DEFAULT_CONFIG = "network_segments.yaml"
# Least click probability of an outer window (A or C).  A sampled attempt
# count log1p(-u) / log1p(-p) reaches 53 ln 2 / p, about 36.7 / p, at the
# largest uniform u = 1 - 2^-53, and passes the float maximum once p is
# below 53 ln 2 / 1.797e308 = 2.0436e-307; this floor rounds that up.
MIN_CLICK_PROB = 2.05e-307

# libyaml's C parser when PyYAML was built with it, else the pure one.  Both
# share the safe resolver and constructor, so they build the same document;
# the C one is several times faster.
class _ConfigLoader(yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader):
    """Safe loader that also reads YAML 1.2 exponent floats.

    The YAML 1.1 resolver reads ``1.0e7``, ``1e7`` and ``1E-3`` as strings;
    only a signed exponent (``1.0e+7``) makes a float.  The resolver added
    below goes to this class alone; PyYAML's loaders are left as they are.
    A digit must follow a leading dot, as in PyYAML's own float pattern, so
    that ``._e3`` stays a string rather than failing float().
    """


_ConfigLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9][0-9_]*)[eE][-+]?[0-9]+$"),
    list("-+0123456789."),
)
YAML_LOADER = _ConfigLoader


class ConfigError(ValueError):
    """Configuration rejected; ``problems`` lists every violation found."""

    def __init__(self, problems: list[str]) -> None:
        self.problems = list(problems)
        super().__init__("invalid configuration:\n" + "\n".join(f"  - {p}" for p in self.problems))


def data_path(name: str = DEFAULT_CONFIG) -> Path:
    """Filesystem path of a bundled data file."""
    return Path(str(resources.files("ghzline") / "data" / name))


# The JSON Schema types config.schema.json names; bool is no number, as in
# jsonschema.
_SCHEMA_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "number": lambda x: isinstance(x, numbers.Number) and not isinstance(x, bool),
}
# The instance type each keyword applies to; others pass it unchecked.
_KEYWORD_TYPES = {
    "required": "object",
    "properties": "object",
    "additionalProperties": "object",
    "items": "array",
    "minItems": "array",
    "minLength": "string",
    "minimum": "number",
    "maximum": "number",
    "exclusiveMinimum": "number",
    "exclusiveMaximum": "number",
}
# (violated when, message) of each numeric bound, in jsonschema's words.
_BOUNDS = {
    "minimum": (operator.lt, "is less than the minimum of"),
    "maximum": (operator.gt, "is greater than the maximum of"),
    "exclusiveMinimum": (operator.le, "is less than or equal to the minimum of"),
    "exclusiveMaximum": (operator.ge, "is greater than or equal to the maximum of"),
}
# Every keyword the interpreter knows: the 13 it checks, then those that
# only annotate or hold subschemas for $ref.
_SCHEMA_KEYWORDS = {
    "type", "$ref", "anyOf", *_KEYWORD_TYPES, "$schema", "title", "description", "$defs"
}
# The subschemas each keyword holds, if any.
_SUBSCHEMAS = {
    "properties": dict.values, "$defs": dict.values, "items": lambda s: [s], "anyOf": list
}


def _compile_schema(schema: dict, root: dict | None = None) -> dict:
    """Check that ``schema`` uses only what _schema_errors interprets, and
    replace each ``$ref`` by the subschema it points to, in place.

    Raises ValueError on any other keyword, type name, reference form or
    open object, so that an edit to the schema cannot be silently ignored.
    """
    root = schema if root is None else root
    for key, value in schema.items():
        if key not in _SCHEMA_KEYWORDS:
            raise ValueError(f"config schema: unsupported keyword {key!r}")
        if key == "type" and not (isinstance(value, str) and value in _SCHEMA_TYPES):
            raise ValueError(f"config schema: unsupported type {value!r}")
        if key == "additionalProperties" and value is not False:
            raise ValueError(f"config schema: unsupported additionalProperties {value!r}")
        if key == "$ref":
            if not value.startswith("#/"):
                raise ValueError(f"config schema: unsupported $ref {value!r}")
            target = root
            for part in value[2:].split("/"):
                target = target[part]
            schema[key] = target
        for sub in _SUBSCHEMAS[key](value) if key in _SUBSCHEMAS else ():
            _compile_schema(sub, root)
    return schema


@cache
def _config_schema() -> dict:
    """config.schema.json, read and compiled once per process."""
    with (resources.files("ghzline") / "data" / "config.schema.json").open() as fh:
        return _compile_schema(json.load(fh))


def _schema_errors(schema: dict, node, path: tuple = ()):
    """(path, message) of every violation of ``schema`` by ``node``.

    Keywords are checked in the schema's order, depth first, with
    jsonschema's Draft 2020-12 message texts.
    """
    for key, value in schema.items():
        if key in _KEYWORD_TYPES and not _SCHEMA_TYPES[_KEYWORD_TYPES[key]](node):
            continue
        if key == "$ref":
            yield from _schema_errors(value, node, path)
        elif key == "type":
            if not _SCHEMA_TYPES[value](node):
                yield path, f"{node!r} is not of type {value!r}"
        elif key == "required":
            for name in value:
                if name not in node:
                    yield path, f"{name!r} is a required property"
        elif key == "properties":
            for name, sub in value.items():
                if name in node:
                    yield from _schema_errors(sub, node[name], path + (name,))
        elif key == "additionalProperties":
            known = schema.get("properties", {})
            extras = sorted({name for name in node if name not in known}, key=str)
            if extras:
                verb = "was" if len(extras) == 1 else "were"
                names = ", ".join(repr(name) for name in extras)
                yield path, f"Additional properties are not allowed ({names} {verb} unexpected)"
        elif key == "items":
            for i, item in enumerate(node):
                yield from _schema_errors(value, item, path + (i,))
        elif key in ("minItems", "minLength"):
            if len(node) < value:
                yield path, f"{node!r} {'should be non-empty' if value == 1 else 'is too short'}"
        elif key in _BOUNDS:
            violated, text = _BOUNDS[key]
            if violated(node, value):
                yield path, f"{node!r} {text} {value!r}"
        elif key == "anyOf":
            if all(next(_schema_errors(sub, node, path), None) for sub in value):
                yield path, f"{node!r} is not valid under any of the given schemas"


def _non_finite(node, where: str) -> list[str]:
    """Dotted paths of every number in a parsed document that a float
    cannot hold: inf, NaN, or an integer beyond the float range.

    YAML's .inf and .nan satisfy every numeric bound of the schema, and a
    huge integer would overflow only later, when the model converts it; so
    they are caught here rather than surfacing as a NaN or null rate or as
    a traceback.
    """
    if isinstance(node, (int, float)):
        # NaN fails the comparison too; abs(True) is 1
        return [] if abs(node) <= sys.float_info.max else [f"{where or '<root>'}: must be finite"]
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return []
    prefix = f"{where}." if where else ""
    return [p for key, value in items for p in _non_finite(value, f"{prefix}{key}")]


def validate_document(doc) -> list[str]:
    """All schema and consistency violations of a parsed config document."""
    problems = [
        f"{'.'.join(str(x) for x in path) or '<root>'}: {message}"
        for path, message in sorted(
            _schema_errors(_config_schema(), doc), key=lambda e: [str(x) for x in e[0]]
        )
    ]
    problems += _non_finite(doc, "")
    if problems:
        return problems
    # The schema cannot cross-check redundant fields, see a transmission so
    # small that it is subnormal, see an outer click probability below
    # MIN_CLICK_PROB, nor tell segments apart by name.  A subnormal
    # transmission, given or implied by a loss above about 3076.5 dB, makes
    # the yields' products underflow into 0/0 = NaN later.
    tiny = sys.float_info.min
    first_at: dict[str, int] = {}
    for i, seg in enumerate(doc["segments"]):
        first = first_at.setdefault(seg["name"], i)
        if first != i:
            problems.append(
                f"segments.{i}.name: duplicate segment name {seg['name']!r} "
                f"(first at segments.{first})"
            )
        found = len(problems)
        for key in ("AB", "BC"):
            raw = seg["links"][key]
            where = f"segments.{i}.links.{key}"
            if "transmission" in raw and raw["transmission"] < tiny:
                problems.append(
                    f"{where}.transmission: {raw['transmission']!r} is less than the "
                    f"minimum of {tiny!r}"
                )
            if "loss_db" not in raw:
                continue
            implied = transmission_from_db(raw["loss_db"])
            if implied < tiny:
                problems.append(
                    f"{where}.loss_db: implies transmission {implied!r}, need >= {tiny!r}"
                )
            elif "transmission" in raw and abs(implied - raw["transmission"]) > 1e-9:
                problems.append(
                    f"{where}: transmission {raw['transmission']} "
                    f"disagrees with loss_db {raw['loss_db']} (implies {implied:.9g})"
                )
        if len(problems) > found:
            continue
        clicks = window_click_probs(_build_segment(seg), with_memory=False)
        problems += [
            f"segments.{i}.nodes.{node}: click probability {clicks[node]!r} is less "
            f"than the minimum of {MIN_CLICK_PROB!r}"
            for node in "AC"
            if clicks[node] < MIN_CLICK_PROB
        ]
    return problems


def _build_link(raw: dict) -> LinkParams:
    if "loss_db" in raw:
        transmission = transmission_from_db(raw["loss_db"])
    else:
        transmission = raw["transmission"]
    return LinkParams(length=raw["length"], transmission=transmission)


def _build_node(key: str, raw: dict) -> NodeParams:
    return NodeParams(
        name=raw.get("name", key),
        detector_efficiency=raw["detector_efficiency"],
        dark_count_prob=raw.get("dark_count_prob", 0.0),
    )


def _build_segment(seg: dict) -> TrioConfig:
    mem = seg.get("memory")
    return TrioConfig(
        name=seg["name"],
        node_a=_build_node("A", seg["nodes"]["A"]),
        node_b=_build_node("B", seg["nodes"]["B"]),
        node_c=_build_node("C", seg["nodes"]["C"]),
        link_ab=_build_link(seg["links"]["AB"]),
        link_bc=_build_link(seg["links"]["BC"]),
        source=SourceParams(frequency=seg["source"]["frequency"]),
        memory=MemoryParams(efficiency=mem["efficiency"], t2=mem["T2"]) if mem else None,
        speed_of_light=seg.get("speed_of_light", SPEED_OF_LIGHT_FIBER),
    )


def load_config(path) -> list[TrioConfig]:
    """Parse and validate a segment configuration file.

    Violations are collected and reported all at once in a ConfigError
    instead of stopping at the first.
    """
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ConfigError([f"cannot read {p}: {exc}"]) from exc
    try:
        doc = yaml.load(text, Loader=YAML_LOADER)
    except (yaml.YAMLError, ValueError) as exc:
        # a ValueError: an integer beyond Python's int-string conversion limit
        raise ConfigError([f"{p}: parse error: {exc}"]) from exc
    problems = validate_document(doc)
    if problems:
        raise ConfigError(problems)
    return [_build_segment(seg) for seg in doc["segments"]]


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
    import numpy as np

    lo, hi, steps = rng
    return [float(x) for x in np.linspace(lo, hi, int(steps))]


def _failed_rows(
    cfg: TrioConfig, noises: list[NoiseParams], memory: bool, t2: float | None, error: str
) -> list[RateReport]:
    """NaN rows of a block whose grid points could not be evaluated, with the reason."""
    from .rates import RateReport

    nan = float("nan")
    return [
        RateReport(cfg.name, noise.channel_depol, noise.gate_fail, memory, t2,
                   nan, nan, nan, nan, nan, nan, error)
        for noise in noises
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
    from .protocol import NoiseParams
    from .rates import rate_reports

    fds, fgs = _axis(spec.fd_range), _axis(spec.fg_range)
    noises = [NoiseParams(channel_depol=fd, gate_fail=fg) for fd in fds for fg in fgs]
    rows: list[RateReport] = []
    for cfg in sorted(configs, key=lambda c: c.name):
        for mode in ("off", "on"):
            if mode not in spec.memory_modes:
                continue
            if mode == "off":
                t2s: list[float | None] = [None]
            elif spec.t2_values:
                t2s = sorted(spec.t2_values)
            else:
                t2s = [cfg.memory.t2 if cfg.memory else None]
            memory = mode == "on"
            for t2 in t2s:
                try:
                    block = cfg
                    if memory and t2 is not None:
                        block = replace(cfg, memory=replace(require_memory(cfg), t2=t2))
                    rows += rate_reports(block, noises, use_memory=memory)
                except ValueError as exc:
                    error = f"{type(exc).__name__}: {exc}"
                    rows += _failed_rows(cfg, noises, memory, t2, error)
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


def _csv_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    return "" if value is None else f"{float(value):.17g}"


def _csv_quoted(text: str) -> str:
    """``text`` as csv.writer writes it among other cells: quoted when it
    holds a comma, quote or line break."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text, ""])
    return buf.getvalue()[:-2]  # less the empty cell's comma and the line end


# One CSV line of a row, cells in ROW_COLUMNS order: the quoted segment,
# f_D and f_G, the memory, T2 and yield cells as one text, then five floats.
# '%.17g' % x is the text of f"{float(x):.17g}", so every cell is _csv_cell's.
_CSV_LINE = "%s,%.17g,%.17g,%s" + ",%.17g" * 5 + "\n"


def render_csv(rows) -> str:
    """The header and one line per row, with the cells and quoting of
    csv.writer over _csv_cell.

    Consecutive rows holding the very same segment, memory, T2 and yield
    objects, as every row of a run_sweep block does, share the text of
    those cells.  The match is by identity, never by value: 0.0 == -0.0
    but their texts differ.
    """
    quoted: dict[str, str] = {}
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
        lines.append(_CSV_LINE % (head, f_d, f_g, mid, fid, q_x, q_ab, r_a, r_s))
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
    from .rates import RateReport

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
    try:
        return SweepSpec(**fields)
    except SpecError as exc:
        raise ValueError(f"{SPEC_FLAGS[exc.field]}: {exc.problem}") from None


def _cmd_simulate(args) -> int:
    configs = _load_configs(args)
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
