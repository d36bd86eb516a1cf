"""MiniFortran CST and normalised ``T_src``.

tree-sitter-fortran analogue: a lossless token tree with paren grouping and
block nesting (``do``/``if``/``program`` regions), from which ``T_src``
drops comments and punctuation. Directives stay, with their semantic words
visible — identically to the C++ side.
"""

from __future__ import annotations

from typing import Optional

from repro.lang.fortran.lexer import FtToken, FtTokenType, lex_fortran
from repro.trees.node import Node, SourceSpan

_BLOCK_OPENERS = frozenset({"program", "module", "subroutine", "function", "do", "if"})


def _token_node(tok: FtToken) -> Node:
    span = SourceSpan(tok.file, tok.line)
    if tok.type is FtTokenType.KEYWORD:
        return Node(tok.text, "kw", None, span)
    if tok.type is FtTokenType.IDENT:
        return Node(tok.text, "ident", None, span)
    if tok.type is FtTokenType.INT:
        return Node("int-lit", "lit", None, span, {"text": tok.text})
    if tok.type is FtTokenType.REAL:
        return Node("real-lit", "lit", None, span, {"text": tok.text})
    if tok.type is FtTokenType.STRING:
        return Node("str-lit", "lit", None, span, {"text": tok.text})
    if tok.type is FtTokenType.LOGICAL:
        return Node("logical-lit", "lit", None, span, {"text": tok.text})
    if tok.type is FtTokenType.DOTOP:
        return Node(tok.text, "kw", None, span)
    if tok.type is FtTokenType.COMMENT:
        return Node("comment", "trivia", None, span)
    if tok.type is FtTokenType.DIRECTIVE:
        return _directive_node(tok)
    return Node(tok.text, "punct", None, span)


def _directive_node(tok: FtToken) -> Node:
    span = SourceSpan(tok.file, tok.line)
    body = tok.text[2:].strip()  # strip '!$'
    words = body.replace("(", " ( ").replace(")", " ) ").replace(",", " , ").replace(":", " : ").split()
    family = words[0].lower() if words else ""
    node = Node(f"directive:{family}", "directive", None, span)
    for w in words[1:]:
        if w in "(),:":
            continue
        node.add(Node(w.lower(), "kw", None, span))
    return node


def fortran_cst(text: str, path: str = "<memory>", tolerant: bool = False) -> Node:
    """Lossless-ish CST: file → statements/blocks → token leaves."""
    toks = lex_fortran(text, path, tolerant=tolerant)
    root = Node("file", "cst", None, None, {"path": path})
    # stack of (container node, kind) for block nesting
    stack: list[Node] = [root]
    line: list[Node] = []
    line_first: list[FtToken] = []

    def flush() -> None:
        nonlocal line, line_first
        if not line:
            return
        first = line_first[0] if line_first else None
        stmt = Node("stmt", "cst-stmt", None, SourceSpan(first.file, first.line) if first else None)
        # paren grouping within the statement
        gstack = [stmt]
        for nd, tk in zip(line, line_first):
            if tk.text == "(" and tk.type is FtTokenType.PUNCT:
                g = Node("paren-group", "group", None, SourceSpan(tk.file, tk.line))
                gstack[-1].add(g)
                gstack.append(g)
                continue
            if tk.text == ")" and tk.type is FtTokenType.PUNCT:
                if len(gstack) > 1:
                    gstack.pop()
                continue
            gstack[-1].add(nd)
        # block structure
        head = line_first[0]
        head_word = head.text if head.type is FtTokenType.KEYWORD else ""
        words = [t.text for t in line_first if t.type is FtTokenType.KEYWORD]
        if head_word == "end" or head_word in ("enddo", "endif"):
            if len(stack) > 1:
                stack.pop()
            stack[-1].add(stmt)
        elif head_word in _BLOCK_OPENERS and ("then" in words or head_word != "if"):
            block = Node(f"{head_word}-block", "block", [stmt], stmt.span)
            stack[-1].add(block)
            stack.append(block)
        else:
            stack[-1].add(stmt)
        line = []
        line_first = []

    for tok in toks:
        if tok.type in (FtTokenType.NEWLINE, FtTokenType.EOF):
            flush()
            continue
        line.append(_token_node(tok))
        line_first.append(tok)
    flush()
    return root


_ANON_KINDS = frozenset({"trivia", "punct"})


def fortran_src_tree(cst: Node) -> Node:
    """``T_src``: drop trivia and anonymous punctuation."""

    def rebuild(node: Node) -> Optional[Node]:
        if node.kind in _ANON_KINDS:
            return None
        kept = []
        for c in node.children:
            rc = rebuild(c)
            if rc is not None:
                kept.append(rc)
        return Node(node.label, node.kind, kept, node.span, dict(node.attrs))

    out = rebuild(cst)
    assert out is not None
    return out
