"""Convenience constructors and an s-expression reader/writer for trees.

The s-expression form is used throughout the test suite to state expected
trees compactly: ``(fn (params (var) (var)) (body (ret (add (var) (lit)))))``.
"""

from __future__ import annotations

from typing import Optional

from repro.trees.node import Node, SourceSpan
from repro.util.errors import ReproError


def leaf(label: str, kind: str = "tok", span: Optional[SourceSpan] = None) -> Node:
    """A childless node."""
    return Node(label, kind, None, span)


def tree(label: str, *children: Node, kind: str = "node", span: Optional[SourceSpan] = None) -> Node:
    """An internal node with the given children."""
    return Node(label, kind, list(children), span)


def from_sexpr(text: str, kind: str = "node") -> Node:
    """Parse a tree from an s-expression.

    Labels are bare atoms; ``(a b (c d))`` is a root ``a`` with leaf child
    ``b`` and internal child ``c`` having leaf child ``d``.
    """
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    pos = 0

    def parse() -> Node:
        nonlocal pos
        if pos >= len(tokens):
            raise ReproError("unexpected end of s-expression")
        tok = tokens[pos]
        if tok == "(":
            pos += 1
            if pos >= len(tokens) or tokens[pos] in "()":
                raise ReproError("expected label after '('")
            node = Node(tokens[pos], kind)
            pos += 1
            while pos < len(tokens) and tokens[pos] != ")":
                node.add(parse())
            if pos >= len(tokens):
                raise ReproError("unbalanced s-expression: missing ')'")
            pos += 1
            return node
        if tok == ")":
            raise ReproError("unexpected ')'")
        pos += 1
        return Node(tok, kind)

    root = parse()
    if pos != len(tokens):
        raise ReproError("trailing tokens after s-expression")
    return root


def to_sexpr(node: Node) -> str:
    """Render a tree back to the compact s-expression form."""
    if node.is_leaf:
        return node.label
    inner = " ".join(to_sexpr(c) for c in node.children)
    return f"({node.label} {inner})"
