"""Name normalisation of ``T_sem`` (paper §III-B, §IV-A).

The paper normalises programmer-introduced names to their token *type* so
that TED "preserv[es] the overall semantic structure and control flow graph";
a subtree with the closest structure then has the minimal distance.

The paper also discards non-semantic ClangAST noise (implicit casts,
value-category nodes) when forming ``T_sem``. Our frontends emit no such
node, so there is nothing to discard and no pass for it. T_src is not
renamed either: none of its node kinds is a :data:`NAMED_KINDS` kind, so
its identifiers keep their text (DESIGN.md §1).
"""

from __future__ import annotations

from repro.trees.node import Node

#: Node kinds whose labels are programmer-introduced names. Normalisation
#: replaces the label with the kind itself ("var", "call", "fn", ...).
NAMED_KINDS = frozenset(
    {
        "var",
        "param",
        "field",
        "fn",
        "call",
        "type-name",
        "class",
        "struct",
        "module",
        "label",
        "namespace-ref",
        "kernel",
        "member",
    }
)


def normalize_names(root: Node) -> Node:
    """Return a copy of ``root`` with programmer names erased.

    Nodes whose ``kind`` appears in :data:`NAMED_KINDS` get their label
    replaced by the kind; the original name is preserved in
    ``attrs["name"]`` for tooling but is invisible to TED.
    """

    def fix(node: Node) -> Node:
        if node.kind in NAMED_KINDS and node.label != node.kind:
            node.attrs.setdefault("name", node.label)
            node.label = node.kind
        return node

    return root.map_nodes(fix)

