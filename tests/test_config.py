"""The config loaders' tag resolution and document construction, held to
PyYAML's own, and the finite check on the documents they build."""

import sys

import pytest
import yaml
from hypothesis import example, given
from hypothesis import strategies as st

from ghzline.config import YAML_LOADER, _config_loader, _non_finite, validate_document


class _StockDeep:
    """PyYAML's generic construction, deep: every collection is built with
    its contents before its parent, as the config loaders build it."""

    def construct_document(self, node):
        return self.construct_object(node, deep=True)


LOADERS = {"default": YAML_LOADER, "pure-python": _config_loader(yaml.SafeLoader)}
STOCK = {name: type("Stock", (_StockDeep, loader), {}) for name, loader in LOADERS.items()}


def _outcome(text, loader):
    """(document, None) or (None, (error type, error text)) of one load."""
    try:
        return yaml.load(text, Loader=loader), None
    except Exception as exc:  # compared by type and text
        return None, (type(exc), str(exc))


def assert_builds_as_stock(text):
    for name, loader in LOADERS.items():
        assert _outcome(text, loader) == _outcome(text, STOCK[name]), (name, text)


SCALARS = (
    st.none() | st.booleans() | st.integers() | st.text(max_size=8) | st.dates()
    | st.floats(allow_nan=False)
)
DOCUMENTS = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=5) | st.integers(), inner, max_size=4),
    max_leaves=20,
)


@pytest.mark.parametrize("flow", [True, False], ids=["flow", "block"])
@given(doc=DOCUMENTS)
def test_drawn_documents_build_as_stock(flow, doc):
    assert_builds_as_stock(yaml.safe_dump(doc, default_flow_style=flow))


CORPUS = {
    "aliases": "a: &x {k: [1, 2]}\nb: *x\nc: [*x, &y 1.5, *y]\n",
    "merge": "base: &b {x: 1, y: 2}\nc: {<<: *b, y: 3}\n",
    "merge-list": "p: &p {x: 1}\nq: &q {x: 2, y: 2}\nr: {<<: [*p, *q], z: 3}\n",
    "merge-nested": "a: &a {x: 1}\nb: &b {<<: *a, y: 2}\nc: {<<: *b}\n",
    "merge-scalar": "a: {<<: 1}\n",
    "merge-list-of-scalars": "a: {<<: [1]}\n",
    "value-key": "a: {=: 1, b: 2}\n",
    "set": "!!set {? a, ? b}\n",
    "omap": "!!omap [{a: [1, 2]}, {b: {c: 3}}]\n",
    "pairs": "!!pairs [{a: 1}, {a: 2}]\n",
    "binary": "!!binary aGVsbG8=\n",
    "timestamp": "[2001-12-14t21:59:43.10-05:00, 2002-12-14]\n",
    "explicit-float": '!!float "1"\n',
    "exponent-float": "[1e7, 1.0e+7, '1e7']\n",
    "unknown-tag": "a: !foo bar\n",
    "unknown-tag-collection": "a: !foo [1]\n",
    "unhashable-key": "? [1]\n: x\n",
    "unhashable-set-key": "? !!set {a}\n: x\n",
    "unhashable-key-before-bad-value": "? [1]\n: !foo x\n",
    "self-sequence": "&s [*s]\n",
    "self-mapping": "&m {a: *m}\n",
    "self-key": "&m {*m : 1}\n",
    "self-through-set": "&s [!!omap [{k: *s}]]\n",
    "str-on-mapping": "!!str {a: 1}\n",
    "map-on-sequence": "!!map [1]\n",
    "seq-on-mapping": "!!seq {a: 1}\n",
    "bad-bool": "!!bool maybe\n",
    "bad-int": "!!int x\n",
    "empty": "",
    "null-root": "~\n",
}


@pytest.mark.parametrize("text", CORPUS.values(), ids=CORPUS.keys())
def test_corpus_builds_as_stock(text):
    assert_builds_as_stock(text)


@pytest.mark.parametrize("loader", LOADERS.values(), ids=LOADERS.keys())
def test_aliases_share_one_object(loader):
    doc = yaml.load(CORPUS["aliases"], Loader=loader)
    assert doc["a"] is doc["b"] is doc["c"][0]
    assert doc["c"][1:] == [1.5, 1.5]


# ---------------------------------------------------------------- resolver

def _table_firsts(loader):
    return sorted(first for first in loader.yaml_implicit_resolvers if first is not None)


# one scalar that each implicit resolver of the config loaders matches
RESOLVED = [
    "yes", "No", "TRUE", "off", "On", "1.5", "-1.5e+3", "1e7", ".5e-3", "+.inf", ".NaN",
    "190:20:30.15", "0b101", "017", "0x1F", "-12", "190:20:30", "<<", "~", "null", "",
    "2001-12-14", "2001-12-14t21:59:43.10-05:00", "=", "!", "&", "*",
]


@pytest.mark.parametrize("loader", LOADERS.values(), ids=LOADERS.keys())
def test_resolved_corpus_covers_every_tag(loader):
    tags = {tag for pairs in loader.yaml_implicit_resolvers.values() for tag, _ in pairs}
    resolved = {loader("").resolve(yaml.ScalarNode, value, (True, False))
                for value in RESOLVED}
    assert resolved == tags


def _scalars(loader):
    """Texts that open with a character of the resolver table, drawn from
    the characters its patterns read, or any text at all."""
    alphabet = st.sampled_from("0123456789-+._:eExXbBoOaAfFlLnNsStTuUyY<=~!&* \t")
    opened = st.builds(lambda first, rest: first + rest,
                       st.sampled_from(_table_firsts(loader)), st.text(alphabet, max_size=12))
    return st.sampled_from(RESOLVED) | opened | st.text(max_size=8)


@pytest.mark.parametrize("loader", LOADERS.values(), ids=LOADERS.keys())
@given(data=st.data(), implicit=st.tuples(st.booleans(), st.booleans()))
def test_table_resolver_equals_base_resolver(loader, data, implicit):
    value = data.draw(_scalars(loader))
    kind = data.draw(st.sampled_from([yaml.ScalarNode, yaml.SequenceNode, yaml.MappingNode]))
    resolver = loader("")
    value = value if kind is yaml.ScalarNode else None
    expected = yaml.resolver.BaseResolver.resolve(resolver, kind, value, implicit)
    assert resolver.resolve(kind, value, implicit) == expected


@pytest.mark.parametrize("loader", LOADERS.values(), ids=LOADERS.keys())
def test_every_table_entry_resolves_as_base_resolver(loader):
    # each first character with a text that its own patterns read and
    # texts that they do not, under each pair of implicit flags
    resolver = loader("")
    for first in _table_firsts(loader):
        for value in [v for v in RESOLVED if v[:1] == first] + [first, first + "x:"]:
            for implicit in ((True, False), (False, True), (False, False), (True, True)):
                expected = yaml.resolver.BaseResolver.resolve(
                    resolver, yaml.ScalarNode, value, implicit)
                assert resolver.resolve(yaml.ScalarNode, value, implicit) == expected


def test_a_base_with_path_resolvers_is_refused():
    class WithPaths(yaml.SafeLoader):
        pass

    WithPaths.add_path_resolver("!point", ["points", None], dict)
    with pytest.raises(TypeError, match="path resolvers"):
        _config_loader(WithPaths)


# ---------------------------------------------------------------- floats

FLOATS = [
    "-0.0", "+.5", "1.", "1e400", "-1e400", "1_0.5", "190:20:30.15", "-.inf", ".NaN",
    "1.0E+7", "1e7", "0.1", "-1.5e-3", "5e-324", "2e-324", "1" * 400, "." + "0" * 400 + "1",
    "0", "-0", "+", "-", ".", "-.", "+.", "", "e3", "1e", "1.e+", "1__", "_1", ".e3", "1:", "+.INF",
]


def _float_outcome(text, loader):
    """The outcome of one load, with each float by its bits, NaN and -0.0 too."""
    doc, error = _outcome(text, loader)
    return repr(doc) if error is None else error


def assert_floats_as_stock(value):
    texts = [f"!!float '{value}'\n", f"[{value}]\n"] if value else ["!!float ''\n"]
    for text in texts:
        for name, loader in LOADERS.items():
            assert _float_outcome(text, loader) == _float_outcome(text, STOCK[name]), (name, text)


@pytest.mark.parametrize("value", FLOATS)
def test_float_corpus_builds_as_stock(value):
    assert_floats_as_stock(value)


def test_explicit_float_tag_builds_as_stock():
    for text in ("!!float 1\n", "!!float -0\n", "a: !!float 1.0E+7\n"):
        for name, loader in LOADERS.items():
            assert _float_outcome(text, loader) == _float_outcome(text, STOCK[name]), (name, text)


@given(value=st.from_regex(r"[-+]?[0-9_]{0,4}\.?[0-9_]{0,4}(?:[eE][-+]?[0-9]{0,4})?",
                           fullmatch=True)
       | st.text("0123456789+-._:eEinfaINFN", max_size=10)
       | st.floats().map(repr))
def test_drawn_floats_build_as_stock(value):
    assert_floats_as_stock(value)


# ---------------------------------------------------------------- finite check

def reference_non_finite(node) -> list[tuple]:
    """The finite check as one plain recursion, kept as the reference:
    the key path of every int or float whose magnitude a float cannot hold."""
    if isinstance(node, (int, float)):
        return [] if abs(node) <= sys.float_info.max else [()]
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return []
    return [(key, *path) for key, value in items for path in reference_non_finite(value)]


NUMBERS = st.sampled_from(
    [float("inf"), -float("inf"), float("nan"), 10**400, -(10**309), 2**1024, 2**1023, True, 0]
) | st.floats() | st.integers()
KEYS = st.sampled_from(["segments", "links", "AB", "length", "unknown"]) | st.integers() | NUMBERS
# what the config loaders build: !!set gives a set, !!omap and !!pairs a
# list of pairs, whose numbers the check does not read
LEAVES = (NUMBERS | st.none() | st.text(max_size=3) | st.dates()
          | st.frozensets(NUMBERS, max_size=3).map(set))
FINITE_DOCUMENTS = st.recursive(
    LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(KEYS, inner, max_size=4)
    | st.lists(st.tuples(KEYS, inner), max_size=3),
    max_leaves=25,
)


@given(doc=FINITE_DOCUMENTS)
@example(doc=10**400)
@example(doc=float("nan"))
@example(doc=[True, {"a": -float("inf")}])
def test_finite_check_equals_its_reference(doc):
    assert _non_finite(doc) == reference_non_finite(doc)


@pytest.mark.parametrize("loader", LOADERS.values(), ids=LOADERS.keys())
def test_finite_check_on_loaded_documents(loader):
    text = (
        "segments:\n"
        "  - {name: a, unknown: [.inf, {deep: [1, .nan]}], links: {AB: {length: " + "9" * 400
        + "}}}\n"
        "  - !!omap [{x: .inf}, {y: 1}]\n"
        "  - !!set {? .inf, ? 1}\n"
        "top: -.inf\n"
    )
    doc = yaml.load(text, Loader=loader)
    assert _non_finite(doc) == reference_non_finite(doc) == [
        ("segments", 0, "unknown", 0), ("segments", 0, "unknown", 1, "deep", 1),
        ("segments", 0, "links", "AB", "length"), ("top",),
    ]
    # the field walk finds them in the same document order: an unknown
    # key's numbers before a known field's that follows it
    assert [p for p in validate_document(doc) if p.endswith(": must be finite")] == [
        "segments.0.unknown.0: must be finite", "segments.0.unknown.1.deep.1: must be finite",
        "segments.0.links.AB.length: must be finite", "top: must be finite",
    ]
