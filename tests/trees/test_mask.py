"""Coverage masking of trees (§III-A / §IV-D)."""

from repro.trees import Node, SourceSpan, mask_tree
from repro.trees.coverage_mask import LineMask


def spanned(label, file, line, *children):
    return Node(label, "stmt", list(children), SourceSpan(file, line))


class TestLineMask:
    def test_covered(self):
        m = LineMask({"a.cpp": {1, 3}})
        assert m.covered("a.cpp", 1)
        assert not m.covered("a.cpp", 2)

    def test_unknown_file_policy(self):
        # a file the run never entered is not covered
        m = LineMask({"a.cpp": {1}})
        assert not m.covered("other.cpp", 1)
        assert not m.covered_span("other.cpp", 1, 9)

    def test_covered_span_any_line(self):
        m = LineMask({"a.cpp": {5}})
        assert m.covered_span("a.cpp", 3, 6)
        assert not m.covered_span("a.cpp", 6, 9)


class TestMaskTree:
    def test_uncovered_leaf_pruned(self):
        t = spanned("root", "f", 1, spanned("hot", "f", 2), spanned("cold", "f", 9))
        m = LineMask({"f": {1, 2}})
        out = mask_tree(t, m)
        labels = [n.label for n in out.preorder()]
        assert "hot" in labels and "cold" not in labels

    def test_uncovered_parent_with_covered_child_kept(self):
        t = spanned("outer", "f", 9, spanned("inner", "f", 2))
        m = LineMask({"f": {2}})
        out = mask_tree(t, m)
        assert out is not None
        assert [n.label for n in out.preorder()] == ["outer", "inner"]

    def test_spanless_nodes_survive(self):
        t = Node("structural", "tu", [spanned("cold", "f", 9)])
        m = LineMask({"f": {1}})
        out = mask_tree(t, m)
        assert out is not None
        assert out.label == "structural"
        assert not out.children

    def test_fully_cold_tree_pruned_to_none(self):
        t = spanned("root", "f", 9, spanned("a", "f", 10))
        m = LineMask({"f": {1}})
        assert mask_tree(t, m) is None

    def test_full_coverage_is_identity(self):
        t = spanned("root", "f", 1, spanned("a", "f", 2, spanned("b", "f", 3)))
        m = LineMask({"f": {1, 2, 3}})
        assert mask_tree(t, m) == t
