"""Unit tests for the tree core (Node, SourceSpan)."""

import copy
import pickle

import pytest

from repro.trees import Node, SourceSpan, from_sexpr, leaf
from repro.trees import node as node_module
from repro.workflow.codebasedb import decode_tree, encode_tree

#: what every childless node holds as ``children``
EMPTY = ()


class TestSourceSpan:
    def test_single_line(self):
        s = SourceSpan("a.cpp", 3)
        assert s.line_start == 3
        assert s.line_end == 3

    def test_multi_line(self):
        s = SourceSpan("a.cpp", 3, 7)
        assert s.contains_line("a.cpp", 5)
        assert not s.contains_line("a.cpp", 8)
        assert not s.contains_line("b.cpp", 5)

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            SourceSpan("a.cpp", 5, 3)

    def test_union(self):
        a = SourceSpan("f", 2, 4)
        b = SourceSpan("f", 3, 9)
        u = a.union(b)
        assert (u.line_start, u.line_end) == (2, 9)

    def test_union_cross_file_rejected(self):
        with pytest.raises(ValueError):
            SourceSpan("f", 1).union(SourceSpan("g", 1))

    def test_equality_and_hash(self):
        assert SourceSpan("f", 1, 2) == SourceSpan("f", 1, 2)
        assert hash(SourceSpan("f", 1, 2)) == hash(SourceSpan("f", 1, 2))
        assert SourceSpan("f", 1, 2) != SourceSpan("f", 1, 3)

    def test_equal_spans_are_one_object(self):
        assert SourceSpan("f", 4) is SourceSpan("f", 4, 4)
        assert SourceSpan("f", 4, 5) is not SourceSpan("f", 4, 6)

    def test_immutable(self):
        s = SourceSpan("f", 1, 2)
        with pytest.raises(AttributeError):
            s.line_end = 9
        assert SourceSpan("f", 1, 2).line_end == 2

    def test_copy_and_pickle_keep_the_value(self):
        s = SourceSpan("f", 3, 8)
        assert copy.deepcopy(s) is s
        assert pickle.loads(pickle.dumps(s)) == s

    def test_table_bound_clears_and_values_still_compare(self, monkeypatch):
        monkeypatch.setattr(node_module, "SPAN_TABLE_MAX", 4)
        node_module._spans.clear()
        before = SourceSpan("bound.cpp", 1)
        for line in range(2, 10):
            SourceSpan("bound.cpp", line)
            assert len(node_module._spans) <= 4
        after = SourceSpan("bound.cpp", 1)
        assert after is not before  # the table was cleared in between
        assert after == before and hash(after) == hash(before)
        assert {before: "x"}[after] == "x"


class TestNodeBasics:
    def test_size_and_depth(self):
        t = from_sexpr("(a (b c d) e)")
        assert t.size() == 5
        assert t.depth() == 3

    def test_single_node(self):
        n = leaf("x")
        assert n.size() == 1
        assert n.depth() == 1
        assert n.is_leaf

    def test_add_chaining(self):
        n = Node("root").add(leaf("a")).add(leaf("b"))
        assert [c.label for c in n.children] == ["a", "b"]

    def test_leaves_share_the_empty_tuple(self):
        assert leaf("x").children is EMPTY
        assert Node("y", children=[]).children is EMPTY
        assert from_sexpr("(a b)").children[0].children is EMPTY

    def test_add_on_a_leaf_gives_it_its_own_list(self):
        a, b = leaf("a"), leaf("b")
        a.add(leaf("c"))
        assert type(a.children) is list and [c.label for c in a.children] == ["c"]
        assert b.children is EMPTY
        a.add(leaf("d"))
        assert [c.label for c in a.children] == ["c", "d"]

    def test_preorder_order(self):
        t = from_sexpr("(a (b c) (d e))")
        assert [n.label for n in t.preorder()] == ["a", "b", "c", "d", "e"]

    def test_postorder_order(self):
        t = from_sexpr("(a (b c) (d e))")
        assert [n.label for n in t.postorder()] == ["c", "b", "e", "d", "a"]

    def test_walk_with_parent(self):
        t = from_sexpr("(a (b c))")
        pairs = {(n.label, p.label if p else None) for n, p in t.walk_with_parent()}
        assert pairs == {("a", None), ("b", "a"), ("c", "b")}

    def test_deep_tree_traversal_is_iterative(self):
        # 10k-deep chain must not hit the recursion limit
        root = Node("0")
        cur = root
        for i in range(10_000):
            nxt = Node(str(i + 1))
            cur.add(nxt)
            cur = nxt
        assert root.size() == 10_001
        assert root.depth() == 10_001


class TestNodeEquality:
    def test_structural_equality(self):
        assert from_sexpr("(a (b c))") == from_sexpr("(a (b c))")

    def test_label_mismatch(self):
        assert from_sexpr("(a b)") != from_sexpr("(a c)")

    def test_shape_mismatch(self):
        assert from_sexpr("(a b c)") != from_sexpr("(a (b c))")

    def test_spans_ignored(self):
        a = Node("x", span=SourceSpan("f", 1))
        b = Node("x", span=SourceSpan("g", 9))
        assert a == b


class TestNodeTransforms:
    def test_copy_is_deep(self):
        t = from_sexpr("(a (b c))")
        c = t.copy()
        c.children[0].label = "z"
        assert t.children[0].label == "b"

    def test_map_nodes(self):
        t = from_sexpr("(a (b c))")
        upper = t.map_nodes(lambda n: Node(n.label.upper(), n.kind, n.children, n.span, n.attrs))
        assert [n.label for n in upper.preorder()] == ["A", "B", "C"]
        # original untouched
        assert t.label == "a"

    def test_filter_subtrees_drops_matching_root(self):
        t = from_sexpr("(a (drop x) (keep y))")
        out = t.filter_subtrees(lambda n: n.label != "drop")
        assert [n.label for n in out.preorder()] == ["a", "keep", "y"]

    def test_filter_subtrees_root_dropped(self):
        t = from_sexpr("(a b)")
        assert t.filter_subtrees(lambda n: n.label != "a") is None

    def test_find_labels(self):
        t = from_sexpr("(a (b a) a)")
        assert len(t.find_labels("a")) == 3


class TestNodeSerialisation:
    def test_round_trip(self):
        t = from_sexpr("(a (b c) d)")
        t.children[0].span = SourceSpan("f.cpp", 4, 6)
        t.attrs["name"] = "hello"
        back = decode_tree(encode_tree(t))
        assert back == t
        assert back.children[0].span == SourceSpan("f.cpp", 4, 6)
        assert back.span is None
        assert back.attrs == {"name": "hello"}

    def test_non_scalar_attrs_dropped(self):
        t = leaf("x")
        t.attrs["obj"] = object()
        t.attrs["n"] = 3
        assert decode_tree(encode_tree(t)).attrs == {"n": 3}

    def test_pretty_contains_labels(self):
        text = from_sexpr("(a (b c))").pretty()
        assert "a" in text and "b" in text and "c" in text
