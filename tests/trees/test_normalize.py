"""Name normalisation (§III-B behaviours)."""

from repro.trees import Node, normalize_names, tree


class TestNormalizeNames:
    def test_named_kind_label_replaced(self):
        n = Node("my_variable", "var")
        out = normalize_names(n)
        assert out.label == "var"
        assert out.attrs["name"] == "my_variable"

    def test_operator_labels_kept(self):
        # "we ... record only the node type, literal, and operator names"
        n = Node("binop:+", "binop", [Node("x", "var"), Node("3.0", "lit")])
        out = normalize_names(n)
        assert out.label == "binop:+"
        assert out.children[0].label == "var"
        assert out.children[1].label == "3.0"  # literal retained

    def test_two_differently_named_trees_become_identical(self):
        a = tree("fn", Node("alpha", "var"), Node("beta", "var"))
        a.kind = "fn"
        a.label = "compute_alpha"
        b = tree("fn", Node("x", "var"), Node("y", "var"))
        b.kind = "fn"
        b.label = "do_something"
        assert normalize_names(a) == normalize_names(b)

    def test_original_not_mutated(self):
        n = Node("name", "var")
        normalize_names(n)
        assert n.label == "name"

    def test_idempotent(self):
        n = Node("name", "var")
        once = normalize_names(n)
        twice = normalize_names(once)
        assert once == twice

