"""Segment config files: YAML loading, schema and consistency checks, and
one TrioConfig per segment.  Nothing here needs numpy."""

from __future__ import annotations

import contextlib
import io
import json
import numbers
import operator
import re
import sys
from functools import cache
from importlib import resources
from pathlib import Path

import yaml

from .netmodel import (
    SPEED_OF_LIGHT_FIBER,
    LinkParams,
    MemoryParams,
    NodeParams,
    SourceParams,
    TrioConfig,
    transmission_from_db,
    window_click_probs,
)

DEFAULT_CONFIG = "network_segments.yaml"
# Least click probability of an outer window (A or C).  A sampled attempt
# count log1p(-u) / log1p(-p) reaches 53 ln 2 / p, about 36.7 / p, at the
# largest uniform u = 1 - 2^-53, and passes the float maximum once p is
# below 53 ln 2 / 1.797e308 = 2.0436e-307; this floor rounds that up.
MIN_CLICK_PROB = 2.05e-307

# The most collections a config document may nest before load_config stops
# reading it (a valid one nests five).  libyaml's C composer recurses on the
# C stack and crashed the process near 30,000 levels; from about 250 the
# constructor runs out of Python recursion, with the same parse error.
MAX_NESTING = 1000


def _config_loader(base: type) -> type:
    """The config loader on PyYAML's safe loader ``base``, yaml.CSafeLoader
    or yaml.SafeLoader.

    It is a safe loader that also reads YAML 1.2 exponent floats.  The
    YAML 1.1 resolver reads ``1.0e7``, ``1e7`` and ``1E-3`` as strings;
    only a signed exponent (``1.0e+7``) makes a float.  The resolver added
    below goes to the new class alone; PyYAML's loaders are left as they
    are.  A digit must follow a leading dot, as in PyYAML's own float
    pattern, so that ``._e3`` stays a string rather than failing float().

    Mappings and sequences are built whole, with their contents, rather
    than by SafeConstructor's generators, which hand out an empty
    collection first and fill it once the rest of the document is built.
    The objects, aliases and merge keys are the same; a collection that
    holds itself through an alias, which only the generators can build,
    is a yaml.YAMLError here.
    """

    loader = type("_ConfigLoader", (base,), {})
    loader.add_implicit_resolver(
        "tag:yaml.org,2002:float",
        re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9][0-9_]*)[eE][-+]?[0-9]+$"),
        list("-+0123456789."),
    )
    loader.add_constructor(
        "tag:yaml.org,2002:map", lambda ld, node: ld.construct_mapping(node, deep=True))
    loader.add_constructor(
        "tag:yaml.org,2002:seq", lambda ld, node: ld.construct_sequence(node, deep=True))
    return loader


# libyaml's C parser when PyYAML was built with it, else the pure one.  Both
# share the safe resolver and constructor, so they build the same document;
# the C one is several times faster.
YAML_LOADER = _config_loader(yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader)


def _nests_too_deeply(text: str) -> bool:
    """Whether ``text`` nests more than MAX_NESTING collections, read from
    the parser's events up to the first one past the bound.  A parse error
    ends the walk; yaml.load then reports it, or a composer error before
    it, as it would have."""
    # Each collection opens with a character of its own among these: a flow
    # "[" or "{", a block entry's "-", a key's ":" or "?".  A text with no
    # more of them than the bound cannot pass it, and needs no walk.
    if sum(map(text.count, "[{-:?")) <= MAX_NESTING:
        return False
    depth = 0
    with contextlib.suppress(yaml.YAMLError):
        for event in yaml.parse(text, Loader=YAML_LOADER):
            depth += isinstance(event, yaml.CollectionStartEvent)
            depth -= isinstance(event, yaml.CollectionEndEvent)
            if depth > MAX_NESTING:
                return True
    return False


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
# The schema types of the plain Python types a YAML document holds; a value
# of any other type (a date, bytes, a set, a subclass) goes through
# _SCHEMA_TYPES' tests.
_TYPES_OF = {
    dict: ("object",), list: ("array",), str: ("string",),
    int: ("number",), float: ("number",), bool: (), type(None): (),
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
# Keywords that only annotate, or hold subschemas for $ref: they check nothing.
_ANNOTATIONS = {"$schema", "title", "description", "$defs"}
# Every keyword the compiler knows: the 13 it checks, then the annotations.
_SCHEMA_KEYWORDS = {"type", "$ref", "anyOf", *_KEYWORD_TYPES, *_ANNOTATIONS}


def _keyword_check(key, value, schema: dict, compile_sub):
    """(applies, check) of one keyword of ``schema``; ``value`` is the
    keyword's value, a ``$ref`` already resolved to its target.

    ``applies(types)`` tells whether the keyword checks a node of those
    schema types; ``check(node, path, out)`` appends the (path, message)
    of each violation to ``out``, in jsonschema's Draft 2020-12 words.
    """
    if key == "type":
        def check(node, path, out):
            out.append((path, f"{node!r} is not of type {value!r}"))

        return (lambda types: value not in types), check
    if key == "$ref":
        return (lambda types: True), compile_sub(value)
    if key == "anyOf":
        subs = [compile_sub(sub) for sub in value]

        def check(node, path, out):
            for sub in subs:
                found = []
                sub(node, path, found)
                if not found:
                    return
            out.append((path, f"{node!r} is not valid under any of the given schemas"))

        return (lambda types: True), check
    if key == "required":
        def check(node, path, out):
            for name in value:
                if name not in node:
                    out.append((path, f"{name!r} is a required property"))
    elif key == "properties":
        subs = [(name, compile_sub(sub)) for name, sub in value.items()]

        def check(node, path, out):
            for name, sub in subs:
                if name in node:
                    sub(node[name], path + (name,), out)
    elif key == "additionalProperties":
        known = frozenset(schema.get("properties", {}))

        def check(node, path, out):
            if known.issuperset(node):
                return
            extras = sorted({name for name in node if name not in known}, key=str)
            verb = "was" if len(extras) == 1 else "were"
            names = ", ".join(repr(name) for name in extras)
            out.append((path, f"Additional properties are not allowed ({names} {verb} unexpected)"))
    elif key == "items":
        sub = compile_sub(value)

        def check(node, path, out):
            for i, item in enumerate(node):
                sub(item, path + (i,), out)
    elif key in ("minItems", "minLength"):
        text = "should be non-empty" if value == 1 else "is too short"

        def check(node, path, out):
            if len(node) < value:
                out.append((path, f"{node!r} {text}"))
    else:
        violated, text = _BOUNDS[key]

        def check(node, path, out):
            if violated(node, value):
                out.append((path, f"{node!r} {text} {value!r}"))
    kind = _KEYWORD_TYPES[key]
    return (lambda types: kind in types), check


def _compile_schema(schema: dict, root: dict | None = None, compiled: dict | None = None):
    """Compile ``schema`` into one check(node, path, out) that appends the
    (path, message) of each violation by ``node`` to ``out``.

    Keywords are checked in the schema's order, depth first.  Raises
    ValueError on any other keyword, type name, reference form, open
    object or recursive reference, so that an edit to the schema cannot be
    silently ignored.  ``compiled`` maps the id of each subschema compiled
    so far to its check, None while it compiles, so that each ``$ref``
    target is compiled once.
    """
    root = schema if root is None else root
    compiled = {} if compiled is None else compiled
    if id(schema) in compiled:
        if compiled[id(schema)] is None:
            raise ValueError("config schema: unsupported recursive $ref")
        return compiled[id(schema)]
    compiled[id(schema)] = None

    def compile_sub(sub):
        return _compile_schema(sub, root, compiled)

    keyword_checks = []
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
            value = target
        if key == "$defs":
            for sub in value.values():
                compile_sub(sub)
        elif key not in _ANNOTATIONS:
            keyword_checks.append(_keyword_check(key, value, schema, compile_sub))
    # the checks that apply to a node of each Python type, in keyword order
    checks_of = {
        python_type: tuple(keyword for applies, keyword in keyword_checks if applies(types))
        for python_type, types in _TYPES_OF.items()
    }

    def check(node, path, out):
        checks = checks_of.get(type(node))
        if checks is None:  # a date, bytes, a set or a subclass
            types = tuple(name for name, test in _SCHEMA_TYPES.items() if test(node))
            checks = [keyword for applies, keyword in keyword_checks if applies(types)]
        for keyword in checks:
            keyword(node, path, out)

    compiled[id(schema)] = check
    return check


@cache
def _config_schema():
    """config.schema.json, read and compiled once per process."""
    with (resources.files("ghzline") / "data" / "config.schema.json").open() as fh:
        return _compile_schema(json.load(fh))


def _schema_errors(schema, node, path: tuple = ()) -> list[tuple]:
    """(path, message) of every violation by ``node`` of ``schema``, a
    check that _compile_schema made."""
    out: list[tuple] = []
    schema(node, path, out)
    return out


def _non_finite(node) -> list[tuple]:
    """Key paths of every number in a parsed document that a float cannot
    hold: inf, NaN, or an integer beyond the float range.

    YAML's .inf and .nan satisfy every numeric bound of the schema, and a
    huge integer would overflow only later, when the model converts it; so
    they are caught here rather than surfacing as a NaN or null rate or as
    a traceback.  A path is built only for a number rejected.
    """
    if isinstance(node, (int, float)):
        # NaN fails the comparison too; abs(True) is 1
        return [] if abs(node) <= sys.float_info.max else [()]
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return []
    return [(key, *path) for key, value in items for path in _non_finite(value)]


def _dotted(path: tuple) -> str:
    return ".".join(str(x) for x in path) or "<root>"


def validate_document(doc) -> list[str]:
    """All schema and consistency violations of a parsed config document."""
    return _check_document(doc)[0]


def _check_document(doc) -> tuple[list[str], list[TrioConfig]]:
    """validate_document's problems, and the TrioConfig of each segment
    that its consistency pass built: of every segment when there are no
    problems."""
    problems = [
        f"{_dotted(path)}: {message}"
        for path, message in sorted(
            _schema_errors(_config_schema(), doc), key=lambda e: [str(x) for x in e[0]]
        )
    ]
    problems += [f"{_dotted(path)}: must be finite" for path in _non_finite(doc)]
    configs: list[TrioConfig] = []
    if problems:
        return problems, configs
    # The schema cannot cross-check redundant fields, see a transmission so
    # small that it is subnormal, see an outer click probability below
    # MIN_CLICK_PROB or a B click probability with memory that underflows
    # to 0, nor tell segments apart by name.  A subnormal
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
        cfg = _build_segment(seg)
        clicks = window_click_probs(cfg, with_memory=False)
        problems += [
            f"segments.{i}.nodes.{node}: click probability {clicks[node]!r} is less "
            f"than the minimum of {MIN_CLICK_PROB!r}"
            for node in "AC"
            if clicks[node] < MIN_CLICK_PROB
        ]
        # B's dark-count share divides by its click probability
        if cfg.memory is not None and window_click_probs(cfg, with_memory=True)["B"] == 0.0:
            problems.append(
                f"segments.{i}.memory.efficiency: B's click probability with memory "
                f"underflows to 0 (detector efficiency {cfg.node_b.detector_efficiency!r} "
                f"times memory efficiency {cfg.memory.efficiency!r}, no dark counts)"
            )
        configs.append(cfg)
    return problems, configs


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
    """Read, parse and validate a segment configuration file; one
    TrioConfig per segment, in file order.

    Every call reads the file anew.  Violations are collected and reported
    all at once in a ConfigError instead of stopping at the first; so are
    a file that cannot be read or parsed, and a document that refers to
    itself or nests too deeply to build.  Each segment is built once, by
    the consistency checks, and those configs are returned.
    """
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ConfigError([f"cannot read {p}: {exc}"]) from exc
    too_deep = f"{p}: parse error: document nests too deeply"
    if _nests_too_deeply(text):
        raise ConfigError([too_deep])
    # the parser names its stream in every error mark, "in <name>, line L"
    stream = io.StringIO(text)
    stream.name = str(p)
    try:
        doc = yaml.load(stream, Loader=YAML_LOADER)
    except (yaml.YAMLError, ValueError) as exc:
        # a ValueError: an integer beyond Python's int-string conversion
        # limit; a self-referential alias is a yaml.YAMLError
        raise ConfigError([f"{p}: parse error: {exc}"]) from exc
    except RecursionError as exc:
        # within MAX_NESTING, when the caller's stack is already deep
        raise ConfigError([too_deep]) from exc
    problems, configs = _check_document(doc)
    if problems:
        raise ConfigError(problems)
    return configs
