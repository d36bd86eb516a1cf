"""T_sem+i inlining tests (§IV-A)."""

from repro.trees import Node, inline_calls, tree, leaf
from repro.trees.inline import collect_definitions, DEFAULT_MAX_DEPTH


def call(name, system=False):
    return Node(name, "call", None, None, {"callee": name, "system": system})


class TestInlineCalls:
    def test_local_call_inlined(self):
        body = tree("body", leaf("work"))
        root = tree("fn-root", call("helper"))
        out = inline_calls(root, {"helper": body})
        inlined = out.find_labels("inlined-body")
        assert len(inlined) == 1
        assert inlined[0].children[0].find_labels("work")

    def test_size_grows(self):
        body = tree("body", leaf("a"), leaf("b"), leaf("c"))
        root = tree("fn", call("f"))
        out = inline_calls(root, {"f": body})
        assert out.size() > root.size()

    def test_system_call_not_inlined(self):
        # "system headers or libraries are excluded"
        root = tree("fn", call("sysfn", system=True))
        out = inline_calls(root, {"sysfn": leaf("guts")})
        assert not out.find_labels("inlined-body")

    def test_unknown_callee_untouched(self):
        root = tree("fn", call("missing"))
        out = inline_calls(root, {})
        assert out == root

    def test_recursive_call_terminates(self):
        # f's body calls f — fuel must stop the expansion
        body = tree("body", call("f"))
        root = tree("fn", call("f"))
        out = inline_calls(root, {"f": body}, max_depth=DEFAULT_MAX_DEPTH)
        assert out.size() < 10_000

    def test_mutual_recursion_terminates(self):
        fa = tree("body", call("g"))
        fb = tree("body", call("f"))
        root = tree("fn", call("f"))
        out = inline_calls(root, {"f": fa, "g": fb})
        assert out.size() < 10_000

    def test_nested_calls_inlined_transitively(self):
        inner = tree("body", leaf("deep"))
        outer = tree("body", call("inner"))
        root = tree("fn", call("outer"))
        out = inline_calls(root, {"outer": outer, "inner": inner})
        assert out.find_labels("deep")

    def test_marks_call_attr(self):
        root = tree("fn", call("h"))
        out = inline_calls(root, {"h": leaf("x")})
        c = out.find_all(lambda n: n.kind == "call")[0]
        assert c.attrs.get("inlined") is True


class TestSharing:
    """T_sem+i reuses T_sem's unchanged subtrees; everything else is fresh."""

    def _tu(self):
        body = tree("body", leaf("work"))
        helper = Node("fn", "fn", [body], None, {"name": "helper"})
        quiet = tree("quiet", tree("stmt", leaf("a")))
        caller = tree("caller", quiet, tree("expr-stmt", call("helper")))
        return tree("tu", helper, caller), body

    def test_unchanged_subtrees_are_shared(self):
        root, body = self._tu()
        helper, caller = root.children
        out = inline_calls(root, {"helper": body})
        assert out.children[0] is helper
        assert out.children[1] is not caller
        assert out.children[1].children[0] is caller.children[0]

    def test_root_and_inlined_body_are_fresh(self):
        root, body = self._tu()
        out = inline_calls(root, {"helper": body})
        assert out is not root
        inlined = out.find_labels("inlined-body")[0].children[0]
        assert inlined == body and inlined is not body
        assert all(a is not b for a, b in zip(inlined.preorder(), body.preorder()))

    def test_root_fresh_when_nothing_inlines(self):
        root = tree("fn", call("missing"))
        out = inline_calls(root, {})
        assert out is not root
        assert out.children[0] is root.children[0]

    def test_no_node_twice_and_input_unchanged(self):
        root, body = self._tu()
        before = root.pretty()
        out = inline_calls(root, {"helper": body})
        ids = [id(n) for n in out.preorder()]
        assert len(ids) == len(set(ids))
        assert root.pretty() == before
        assert not root.find_labels("inlined-body")


class TestCollectDefinitions:
    def test_collects_fn_bodies(self):
        fn = Node("fn", "fn", [leaf("param"), tree("body", leaf("stmt"))], None, {"name": "myfn"})
        root = tree("tu", fn)
        defs = collect_definitions(root)
        assert "myfn" in defs
        assert defs["myfn"].label == "body"

    def test_uses_label_when_unnormalized(self):
        fn = Node("plainfn", "fn", [tree("body", leaf("s"))])
        defs = collect_definitions(tree("tu", fn))
        assert "plainfn" in defs
