"""The config loaders' document construction, held to PyYAML's own."""

import pytest
import yaml
from hypothesis import given
from hypothesis import strategies as st

from ghzline.config import YAML_LOADER, _config_loader


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

