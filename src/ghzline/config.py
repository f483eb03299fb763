"""Segment config files: YAML loading, the field check against the format
that data/config.schema.json publishes, consistency checks, and one
TrioConfig per segment.  Nothing here needs numpy or jsonschema."""

from __future__ import annotations

import contextlib
import functools
import io
import math
import operator
import re
import sys
from collections.abc import Hashable
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
# reading it (a valid one nests five).  It lies below the depth, fewer on a
# deeper stack, where reading a document runs out of Python recursion:
# ~990 levels in _construct_document, one frame each, with libyaml, and
# ~490 in the pure-Python composer (libyaml's composer crashed near
# 30,000), so it alone sets the cut; and above the 167 opening characters
# of each bundled file, which skip the walk.
MAX_NESTING = 200

# The most (kind, text, implicit) keys each config loader keeps resolved
# tags for: the bundled network_segments.yaml holds 57.
RESOLVE_CACHE_SIZE = 1024


_STR, _SEQ, _MAP, _FLOAT = (
    f"tag:yaml.org,2002:{kind}" for kind in ("str", "seq", "map", "float")
)
# The other scalar tags whose safe constructors build a value in one call.
_SCALAR_TAGS = frozenset(
    f"tag:yaml.org,2002:{kind}" for kind in ("null", "bool", "int", "float", "binary", "timestamp")
)
# The (node type, tag) of the collections _construct_document builds itself.
_COLLECTIONS = frozenset({(yaml.MappingNode, _MAP), (yaml.SequenceNode, _SEQ)})
# The key tags that flatten_mapping acts on: a merge (<<) and a value (=).
_FLATTENED = frozenset({"tag:yaml.org,2002:merge", "tag:yaml.org,2002:value"})
# A float tag's text that float() reads as construct_yaml_float does: a
# sign, digits with at most one dot, and an optional exponent.  Anything
# else (an underscore, a sexagesimal ":", .inf, .nan, no digit at all)
# goes to the safe constructor.
_DECIMAL = re.compile(r"[-+]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?")
# The tag of a node that no implicit resolver matched, by node kind.
_DEFAULT_TAGS = {yaml.ScalarNode: _STR, yaml.SequenceNode: _SEQ, yaml.MappingNode: _MAP}


def _construct_document(loader, node):
    """The document under ``node``, built in one recursive walk over the
    composed node tree in place of SafeConstructor's generic construction.

    Plain mappings (flattened first when a key is a merge ``<<`` or a
    value ``=``), sequences and scalars are built here, a plain decimal
    float by float() alone; every other tag, such as ``!!set``, ``!!omap``
    or an unknown one, goes to PyYAML's deep construct_object.  Both share
    the loader's table of built nodes, so that aliases share one object,
    and its table of nodes still being built, so that a collection that
    holds itself is PyYAML's "found unconstructable recursive node".  The
    objects, errors and their marks are those of SafeConstructor's deep
    construction, and each level of nesting costs one Python frame.

    construct refers to itself through its closure cell, a cycle that
    would keep the loader, its tables and the whole node tree for the
    cyclic garbage collector; emptying the cell on the way out, whether
    the walk returns or raises, leaves them to reference counting.
    """
    built, building = loader.constructed_objects, loader.recursive_objects
    constructors = loader.yaml_constructors

    def construct(node):
        if type(node) is yaml.ScalarNode:
            tag = node.tag
            if tag == _STR:
                return node.value
            if tag == _FLOAT and _DECIMAL.fullmatch(node.value):
                return float(node.value)
            if tag in _SCALAR_TAGS:
                return constructors[tag](loader, node)
            return loader.construct_object(node, deep=True)
        if node in built:
            return built[node]
        if (type(node), node.tag) not in _COLLECTIONS:
            return loader.construct_object(node, deep=True)
        if node in building:
            raise yaml.constructor.ConstructorError(
                None, None, "found unconstructable recursive node", node.start_mark)
        building[node] = None
        if node.tag == _SEQ:
            data = list(map(construct, node.value))
        else:
            for key_node, _ in node.value:
                if key_node.tag in _FLATTENED:
                    loader.flatten_mapping(node)
                    break
            data = {}
            for key_node, value_node in node.value:
                key = construct(key_node)
                # a str key, the usual one, skips the slower ABC check
                if type(key) is not str and not isinstance(key, Hashable):
                    raise yaml.constructor.ConstructorError(
                        "while constructing a mapping", node.start_mark,
                        "found unhashable key", key_node.start_mark)
                data[key] = construct(value_node)
        built[node] = data
        del building[node]
        return data

    try:
        data = construct(node)
    finally:
        del construct
    loader.constructed_objects, loader.recursive_objects = {}, {}
    return data


def _config_loader(base: type) -> type:
    """The config loader on PyYAML's safe loader ``base``, yaml.CSafeLoader
    or yaml.SafeLoader.

    It is a safe loader that also reads YAML 1.2 exponent floats.  The
    YAML 1.1 resolver reads ``1.0e7``, ``1e7`` and ``1E-3`` as strings;
    only a signed exponent (``1.0e+7``) makes a float.  The resolver added
    below goes to the new class alone; PyYAML's loaders are left as they
    are.  A digit must follow a leading dot, as in PyYAML's own float
    pattern, so that ``._e3`` stays a string rather than failing float().
    Documents are built by _construct_document.

    Tags are resolved as BaseResolver.resolve resolves them, from a table
    built here once: each first character's (tag, regexp) pairs, then the
    wildcard ones.  The table is not rebuilt, so it ignores an implicit
    resolver added to the class later.  BaseResolver's path resolvers
    would need the descend and ascend steps, which are no-ops here, so a
    base class with any is refused.  Each loader class keeps the tags of
    the RESOLVE_CACHE_SIZE distinct (kind, text, implicit) keys it last
    resolved, in a static lru_cache that libyaml's composer calls without
    binding a method; the implicit flags are part of the key, since a
    quoted "1.0" is a string where a plain one is a float.
    """
    loader = type("_ConfigLoader", (base,), {
        "construct_document": _construct_document,
        "descend_resolver": lambda self, parent, index: None,
        "ascend_resolver": lambda self: None,
    })
    if loader.yaml_path_resolvers:
        raise TypeError(f"{base.__name__} has path resolvers, which the config loader ignores")
    loader.add_implicit_resolver(
        "tag:yaml.org,2002:float",
        re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9][0-9_]*)[eE][-+]?[0-9]+$"),
        list("-+0123456789."),
    )
    implicit = loader.yaml_implicit_resolvers
    wildcards = tuple(implicit.get(None, ()))
    table = {first: (*pairs, *wildcards) for first, pairs in implicit.items() if first is not None}

    @functools.lru_cache(maxsize=RESOLVE_CACHE_SIZE)
    def resolve(kind, value, implicit):
        if kind is yaml.ScalarNode and implicit[0]:
            for tag, regexp in table.get(value[:1], wildcards):
                if regexp.match(value):
                    return tag
        return _DEFAULT_TAGS.get(kind)

    loader.resolve = staticmethod(resolve)
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


# The config format that data/config.schema.json publishes, as one table:
# each record's required fields, the fields of which it needs at least one
# (a link's transmission or loss_db), and the (kind, detail) of each field it
# allows, in the schema's order; a record is closed to every other key.  A
# number's detail is its bounds, (violated when, words, limit); an object's,
# its record; an array's, the record of its items.  _TYPES gives each kind's
# Python types; bool, an int, is no number, as in jsonschema.
# tests/test_cli.py holds the table to the schema through jsonschema.
_TYPES = {"object": dict, "array": list, "string": str, "number": (int, float)}
_ABOVE_0 = (operator.le, "is less than or equal to the minimum of", 0)
_AT_LEAST_0 = (operator.lt, "is less than the minimum of", 0)
_AT_MOST_1 = (operator.gt, "is greater than the maximum of", 1)
_BELOW_1 = (operator.ge, "is greater than or equal to the maximum of", 1)
_NAME = ("string", None)
_RECORDS = {
    "document": (("segments",), (), {"segments": ("array", "segment")}),
    "segment": (("name", "nodes", "links", "source"), (), {
        "name": _NAME,
        "nodes": ("object", "nodes"),
        "links": ("object", "links"),
        "source": ("object", "source"),
        "memory": ("object", "memory"),
        "speed_of_light": ("number", (_ABOVE_0,)),
    }),
    "nodes": (("A", "B", "C"), (), dict.fromkeys("ABC", ("object", "node"))),
    "links": (("AB", "BC"), (), dict.fromkeys(("AB", "BC"), ("object", "link"))),
    "source": (("frequency",), (), {"frequency": ("number", (_ABOVE_0,))}),
    "memory": (("efficiency", "T2"), (), {
        "efficiency": ("number", (_ABOVE_0, _AT_MOST_1)),
        "T2": ("number", (_ABOVE_0,)),
    }),
    "node": (("detector_efficiency",), (), {
        "name": _NAME,
        "detector_efficiency": ("number", (_ABOVE_0, _AT_MOST_1)),
        "dark_count_prob": ("number", (_AT_LEAST_0, _BELOW_1)),
    }),
    "link": (("length",), ("transmission", "loss_db"), {
        "length": ("number", (_AT_LEAST_0,)),
        "transmission": ("number", (_ABOVE_0, _AT_MOST_1)),
        "loss_db": ("number", (_AT_LEAST_0,)),
    }),
}


def _field_errors(node, kind: str, detail, path: tuple, out: list, infinite: list) -> None:
    """Append the (path, message) of each violation by ``node`` of a field
    of ``kind`` and ``detail`` to ``out``, in jsonschema's Draft 2020-12
    words and, within one path, in the schema's keyword order: type,
    required, anyOf, additionalProperties; and, in document order, the path
    of each number under ``node`` that a float cannot hold to ``infinite``.
    Only a wrong-typed value or one under an unknown key goes to _non_finite."""
    if not isinstance(node, _TYPES[kind]) or type(node) is bool:
        out.append((path, f"{node!r} is not of type {kind!r}"))
        infinite += [path + below for below in _non_finite(node)]
    elif kind == "number":
        for violated, words, limit in detail:
            if violated(node, limit):
                out.append((path, f"{node!r} {words} {limit!r}"))
        if not abs(node) <= _FLOAT_MAX:  # NaN fails it too
            infinite.append(path)
    elif kind != "object":  # a string or an array: both must be non-empty
        if not node:
            out.append((path, f"{node!r} should be non-empty"))
        if kind == "array":
            for i, item in enumerate(node):
                _field_errors(item, "object", detail, path + (i,), out, infinite)
    else:
        required, one_of, fields = _RECORDS[detail]
        for name in required:
            if name not in node:
                out.append((path, f"{name!r} is a required property"))
        if one_of and node.keys().isdisjoint(one_of):
            out.append((path, f"{node!r} is not valid under any of the given schemas"))
        if not fields.keys() >= node.keys():
            # a set, as jsonschema's, so that keys whose str is equal sort alike
            extras = sorted({name for name in node if name not in fields}, key=str)
            verb = "was" if len(extras) == 1 else "were"
            names = ", ".join(map(repr, extras))
            out.append((path, f"Additional properties are not allowed ({names} {verb} unexpected)"))
        for name, value in node.items():
            if name in fields:
                _field_errors(value, *fields[name], path + (name,), out, infinite)
            else:
                infinite += [(*path, name, *below) for below in _non_finite(value)]


_FLOAT_MAX = sys.float_info.max


def _non_finite(node) -> list[tuple]:
    """Key paths of every number under ``node`` that a float cannot hold:
    inf, NaN, or an integer beyond the float range.

    YAML's .inf and .nan satisfy every numeric bound of the schema, and a
    huge integer would overflow only later, when the model converts it; so
    they are caught at load rather than surfacing as a NaN or null rate or
    as a traceback.
    """
    # NaN fails the comparisons too; abs(True) is 1
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    elif isinstance(node, (int, float)):
        return [] if abs(node) <= _FLOAT_MAX else [()]
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
    errors, infinite = [], []
    _field_errors(doc, "object", "document", (), errors, infinite)
    problems = [
        f"{_dotted(path)}: {message}"
        for path, message in sorted(errors, key=lambda e: [str(x) for x in e[0]])
    ]
    problems += [f"{_dotted(path)}: must be finite" for path in infinite]
    configs: list[TrioConfig] = []
    if problems:
        return problems, configs
    # What the field table cannot see, on fields that passed it: duplicate
    # names, a link's two fields together, and click probabilities too small.
    first_at: dict[str, int] = {}
    for i, seg in enumerate(doc["segments"]):
        first = first_at.setdefault(seg["name"], i)
        if first != i:
            problems.append(
                f"segments.{i}.name: duplicate segment name {seg['name']!r} "
                f"(first at segments.{first})"
            )
        links = [_build_link(seg["links"][key], f"segments.{i}.links.{key}", problems)
                 for key in ("AB", "BC")]
        if not all(links):
            continue
        cfg = _build_segment(seg, *links)
        # A's and C's windows do not depend on the memory, B's does
        clicks = window_click_probs(cfg, with_memory=cfg.memory is not None)
        problems += [
            f"segments.{i}.nodes.{node}: click probability {clicks[node]!r} is less "
            f"than the minimum of {MIN_CLICK_PROB!r}"
            for node in "AC"
            if clicks[node] < MIN_CLICK_PROB
        ]
        # B's dark-count share divides by its click probability
        if cfg.memory is not None and clicks["B"] == 0.0:
            problems.append(
                f"segments.{i}.memory.efficiency: B's click probability with memory "
                f"underflows to 0 (detector efficiency {cfg.node_b.detector_efficiency!r} "
                f"times memory efficiency {cfg.memory.efficiency!r}, no dark counts)"
            )
        configs.append(cfg)
    return problems, configs


def _build_link(raw: dict, where: str, problems: list) -> LinkParams | None:
    """The link of a field-checked record ``raw`` at ``where``, from its
    loss_db when given, or None after appending its problems.  A subnormal
    transmission, given or implied by a loss above about 3076.5 dB, would
    make the yields' products underflow into 0/0 = NaN.  The two fields
    must agree relatively, so that a tiny link is checked too, within 1e-8:
    the implied value as the message prints it, at %.9g, is within 5e-9."""
    tiny = sys.float_info.min
    found = len(problems)
    transmission = raw.get("transmission")
    if transmission is not None and transmission < tiny:
        problems.append(f"{where}.transmission: {transmission!r} is less than the minimum "
                        f"of {tiny!r}")
    if "loss_db" in raw:
        implied = transmission_from_db(raw["loss_db"])
        if implied < tiny:
            problems.append(f"{where}.loss_db: implies transmission {implied!r}, need >= {tiny!r}")
        elif transmission is not None and not math.isclose(transmission, implied, rel_tol=1e-8):
            problems.append(
                f"{where}: transmission {transmission} "
                f"disagrees with loss_db {raw['loss_db']} (implies {implied:.9g})"
            )
        transmission = implied
    if len(problems) > found:
        return None
    return LinkParams(length=raw["length"], transmission=transmission)


def _build_node(key: str, raw: dict) -> NodeParams:
    return NodeParams(
        name=raw.get("name", key),
        detector_efficiency=raw["detector_efficiency"],
        dark_count_prob=raw.get("dark_count_prob", 0.0),
    )


def _build_segment(seg: dict, link_ab: LinkParams, link_bc: LinkParams) -> TrioConfig:
    mem = seg.get("memory")
    return TrioConfig(
        name=seg["name"],
        node_a=_build_node("A", seg["nodes"]["A"]),
        node_b=_build_node("B", seg["nodes"]["B"]),
        node_c=_build_node("C", seg["nodes"]["C"]),
        link_ab=link_ab,
        link_bc=link_bc,
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
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
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
    except (LookupError, AttributeError) as exc:
        # PyYAML's safe constructors on an explicitly tagged scalar they
        # cannot read: !!bool maybe (KeyError), !!int '' (IndexError),
        # !!timestamp 2001-99 (AttributeError)
        raise ConfigError([
            f"{p}: parse error: a tagged scalar does not fit its tag "
            f"({type(exc).__name__}: {exc})"
        ]) from exc
    except RecursionError as exc:
        # within MAX_NESTING, when the caller's stack is already deep
        raise ConfigError([too_deep]) from exc
    problems, configs = _check_document(doc)
    if problems:
        raise ConfigError(problems)
    return configs
