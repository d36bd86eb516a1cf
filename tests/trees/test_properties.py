"""Property-based tests for tree transforms and serialisation."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.trees import (
    Node,
    SourceSpan,
    mask_tree,
    normalize_names,
    structural_hash,
    tree_stats,
)
from repro.serde import pack, unpack
from repro.trees.coverage_mask import LineMask
from repro.trees.normalize import NAMED_KINDS
from repro.workflow.codebasedb import decode_tree, encode_tree

_KINDS = ["stmt", "expr", "var", "call", "fn", "lit", "binop"]
_LABELS = ["alpha", "beta", "for", "if", "binop:+", "x", "my_name"]


@st.composite
def trees(draw, max_nodes=20):
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    nodes = [
        Node(
            draw(st.sampled_from(_LABELS)),
            draw(st.sampled_from(_KINDS)),
            None,
            SourceSpan("f.cpp", draw(st.integers(min_value=1, max_value=30))),
        )
    ]
    for _ in range(n - 1):
        parent = draw(st.integers(min_value=0, max_value=len(nodes) - 1))
        child = Node(
            draw(st.sampled_from(_LABELS)),
            draw(st.sampled_from(_KINDS)),
            None,
            SourceSpan("f.cpp", draw(st.integers(min_value=1, max_value=30))),
        )
        nodes[parent].add(child)
        nodes.append(child)
    return nodes[0]


@settings(max_examples=80, deadline=None)
@given(trees())
def test_normalize_preserves_size_and_shape(t):
    out = normalize_names(t)
    assert out.size() == t.size()
    assert out.depth() == t.depth()


@settings(max_examples=80, deadline=None)
@given(trees())
def test_normalize_idempotent(t):
    once = normalize_names(t)
    assert normalize_names(once) == once


@settings(max_examples=80, deadline=None)
@given(trees())
def test_normalize_erases_named_kinds(t):
    out = normalize_names(t)
    for n in out.preorder():
        if n.kind in NAMED_KINDS:
            assert n.label == n.kind


@settings(max_examples=80, deadline=None)
@given(trees(), st.sets(st.integers(min_value=1, max_value=30)))
def test_mask_never_grows_and_full_mask_is_identity(t, lines):
    mask = LineMask({"f.cpp": lines})
    out = mask_tree(t, mask)
    if out is not None:
        assert out.size() <= t.size()
    full = LineMask({"f.cpp": set(range(1, 31))})
    assert mask_tree(t, full) == t


@settings(max_examples=80, deadline=None)
@given(trees(), st.sets(st.integers(min_value=1, max_value=30)))
def test_mask_keeps_only_covered_or_ancestors(t, lines):
    mask = LineMask({"f.cpp": lines})
    out = mask_tree(t, mask)
    if out is None:
        return
    # every kept leaf must itself be covered
    for n in out.preorder():
        if not n.children and n.span is not None:
            assert mask.covered_span(n.span.file, n.span.line_start, n.span.line_end)


_ATTR_VALUES = st.one_of(
    st.text(max_size=6),
    st.integers(min_value=-(2**63), max_value=2**64 - 1),
    st.floats(allow_nan=False),
    st.booleans(),
    st.lists(st.integers(), max_size=2),  # non-scalar: never stored
    st.none(),  # non-scalar: never stored
)


@st.composite
def annotated_trees(draw, max_nodes=20):
    """Trees with unicode and empty labels, optional spans and mixed attrs
    (``_``-prefixed keys and non-scalar values included, both dropped)."""

    def node():
        span = None
        if draw(st.booleans()):
            first = draw(st.integers(min_value=0, max_value=2**31 - 1))
            last = draw(st.integers(min_value=first, max_value=2**31 - 1))
            span = SourceSpan(draw(st.sampled_from(["f.cpp", "ü.h", ""])), first, last)
        keys = st.text(max_size=4) | st.text(max_size=3).map("_".__add__)
        attrs = draw(st.dictionaries(keys, _ATTR_VALUES, max_size=3))
        return Node(draw(st.text(max_size=5)), draw(st.text(max_size=3)), None, span, attrs)

    nodes = [node()]
    for _ in range(draw(st.integers(min_value=0, max_value=max_nodes - 1))):
        child = node()
        nodes[draw(st.integers(min_value=0, max_value=len(nodes) - 1))].add(child)
        nodes.append(child)
    return nodes[0]


def _stored_attrs(node):
    return {
        k: (type(v), v)
        for k, v in node.attrs.items()
        if not k.startswith("_") and isinstance(v, (str, int, float, bool))
    }


@settings(max_examples=80, deadline=None)
@given(annotated_trees())
def test_serialisation_round_trip(t):
    """The flat tree encoding round-trips exactly and re-encodes to the same bytes."""
    encoded = pack(encode_tree(t))
    back = decode_tree(unpack(encoded))
    for a, b in zip(t.preorder(), back.preorder(), strict=True):
        assert (a.label, a.kind, len(a.children)) == (b.label, b.kind, len(b.children))
        assert a.span == b.span
        assert _stored_attrs(a) == {k: (type(v), v) for k, v in b.attrs.items()}
    assert structural_hash(back) == structural_hash(t)
    assert pack(encode_tree(back)) == encoded


@settings(max_examples=80, deadline=None)
@given(trees())
def test_stats_consistent(t):
    s = tree_stats(t)
    assert s.size == t.size()
    assert s.depth == t.depth()
    assert 1 <= s.leaves <= s.size
    assert s.distinct_labels <= s.size
