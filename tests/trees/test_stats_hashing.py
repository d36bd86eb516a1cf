"""Tree statistics, label histograms and structural hashing."""

from collections import Counter

from repro.trees import from_sexpr, label_histogram, structural_hash, tree_stats, Node, SourceSpan
from repro.trees.stats import histogram_lower_bound
from repro.distance import ted


class TestTreeStats:
    def test_counts(self):
        s = tree_stats(from_sexpr("(a (b c d) e)"))
        assert s.size == 5
        assert s.depth == 3
        assert s.leaves == 3
        assert s.max_fanout == 2

    def test_single_node(self):
        s = tree_stats(from_sexpr("x"))
        assert (s.size, s.depth, s.leaves, s.max_fanout) == (1, 1, 1, 0)
        assert s.mean_fanout == 0.0

    def test_distinct_labels(self):
        s = tree_stats(from_sexpr("(a a (a b))"))
        assert s.distinct_labels == 2


class TestHistogram:
    def test_label_histogram(self):
        h = label_histogram(from_sexpr("(a a (a b))"))
        assert h == Counter({"a": 3, "b": 1})

    def test_lower_bound_is_valid(self):
        # bound must never exceed the true TED
        cases = [
            ("(a b c)", "(a b c)"),
            ("(a b)", "(c d e)"),
            ("(a (b c))", "(a c)"),
            ("(x (y (z)))", "(a b c d)"),
        ]
        for sa, sb in cases:
            ta, tb = from_sexpr(sa), from_sexpr(sb)
            bound = histogram_lower_bound(label_histogram(ta), label_histogram(tb))
            assert bound <= ted(ta, tb).distance


class TestStructuralHash:
    def test_equal_trees_equal_hash(self):
        assert structural_hash(from_sexpr("(a (b c))")) == structural_hash(from_sexpr("(a (b c))"))

    def test_label_changes_hash(self):
        assert structural_hash(from_sexpr("(a b)")) != structural_hash(from_sexpr("(a c)"))

    def test_shape_changes_hash(self):
        assert structural_hash(from_sexpr("(a b c)")) != structural_hash(from_sexpr("(a (b c))"))

    def test_kind_changes_hash(self):
        assert structural_hash(Node("x", "stmt")) != structural_hash(Node("x", "expr"))

    def test_span_does_not_change_hash(self):
        a = Node("x", "stmt", None, SourceSpan("f", 1))
        b = Node("x", "stmt", None, SourceSpan("g", 99))
        assert structural_hash(a) == structural_hash(b)

    def test_deep_chain_hashable(self):
        root = Node("0")
        cur = root
        for i in range(5000):
            nxt = Node("n")
            cur.add(nxt)
            cur = nxt
        assert len(structural_hash(root)) == 64
