"""Call inlining for the ``T_sem+i`` metric variant (paper §IV-A, §V-C).

``T_sem+i`` inlines every function invocation *that originated from the same
codebase at the tree level* — system headers and external libraries are
excluded. This captures the case where a codebase abstracts over a parallel
programming model: library-based models (Kokkos, SYCL, TBB, StdPar) pull
large amounts of foreign code into the tree, while compiler-directive models
(OpenMP) barely change.
"""

from __future__ import annotations

import operator
from typing import Callable, Mapping, Optional

from repro.trees.node import Node

#: Default recursion fuel: a call chain deeper than this stops inlining, which
#: also terminates (mutually) recursive functions.
DEFAULT_MAX_DEPTH = 8


def inline_calls(
    root: Node,
    definitions: Mapping[str, Node],
    is_local: Optional[Callable[[Node], bool]] = None,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> Node:
    """``root`` with each local call site's callee body inlined beneath it.

    ``root`` is left unchanged, and the result shares its unchanged parts:
    every subtree of ``root`` that holds no inlined call is returned as is,
    while the result's root, each ancestor of an inlined call and every
    inlined body are fresh nodes. So the result is never ``root`` itself,
    and no node appears twice within it (an id-keyed walk of the result
    stays correct); DESIGN.md, "Tree object economy".

    Parameters
    ----------
    root:
        A ``T_sem`` tree. Call sites are nodes with ``kind == "call"`` whose
        ``attrs["callee"]`` names the invoked function.
    definitions:
        Map from function name to the *body* subtree of its definition.
        Bodies are cloned on insertion, so sharing is safe.
    is_local:
        Predicate deciding whether a given call node refers to codebase-local
        code (default: the callee has a definition and the call is not marked
        ``attrs["system"]``).
    max_depth:
        Inlining fuel; bounds recursive expansion.
    """
    if is_local is None:
        is_local = _not_system
    out = _expand(root, 0, frozenset(), True, definitions, is_local, max_depth)
    return root.copy(deep=False) if out is root else out


def _not_system(node: Node) -> bool:
    """The default ``is_local``: the call is not marked ``attrs["system"]``."""
    return not node.attrs.get("system", False)


def _expand(
    node: Node,
    depth: int,
    active: frozenset[str],
    share: bool,
    definitions: Mapping[str, Node],
    is_local: Callable[[Node], bool],
    max_depth: int,
) -> Node:
    """``node`` with its local calls expanded: ``node`` itself when ``share``
    holds and nothing below it changed, else a fresh node. Inlined bodies
    expand with ``share`` off, so they are copies."""
    new_children = [
        _expand(c, depth, active, share, definitions, is_local, max_depth)
        for c in node.children
    ]
    callee = node.attrs.get("callee")
    inline = (
        node.kind == "call"
        and callee is not None
        and callee in definitions
        and callee not in active
        and depth < max_depth
        and is_local(node)
    )
    if share and not inline and all(map(operator.is_, new_children, node.children)):
        return node
    clone = Node(node.label, node.kind, new_children, node.span, dict(node.attrs))
    if inline:
        body = _expand(
            definitions[callee], depth + 1, active | {callee}, False,
            definitions, is_local, max_depth,
        )
        clone.add(Node("inlined-body", "inline", [body], clone.span, {"callee": callee}))
        clone.attrs["inlined"] = True
    return clone


def collect_definitions(root: Node) -> dict[str, Node]:
    """Harvest function-name → body-subtree from a ``T_sem`` tree.

    Recognises nodes with ``kind == "fn"`` and an ``attrs["name"]`` (set by
    name normalisation) or a label that is the function name; the body is
    the last child (our frontends emit ``fn(params..., body)``).
    """
    defs: dict[str, Node] = {}
    for node in root.preorder():
        if node.kind == "fn" and node.children:
            name = node.attrs.get("name", node.label)
            if name and name != "fn":
                defs[name] = node.children[-1]
    return defs
