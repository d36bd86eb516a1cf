"""MiniFortran ``T_src``: the statement-structured token tree.

tree-sitter-fortran analogue: one statement node per token line, paren
grouping within it and block nesting (``do``/``if``/``program`` regions),
built straight from the tokens. Comments and punctuation make no node, as
in the C++ T_src; a line of nothing else still gets its (empty) statement.
Directives stay, with their semantic words visible — identically to the
C++ side.
"""

from __future__ import annotations

from typing import Optional

from repro.lang.fortran.lexer import FtToken, FtTokenType
from repro.trees.node import Node, SourceSpan

_BLOCK_OPENERS = frozenset({"program", "module", "subroutine", "function", "do", "if"})


#: ``(kind, label)`` of the T_src leaf of each token class that makes one;
#: a ``None`` label keeps the token's text. Comments and punctuation make
#: none.
_LEAVES = {
    FtTokenType.KEYWORD: ("kw", None),
    FtTokenType.IDENT: ("ident", None),
    FtTokenType.INT: ("lit", "int-lit"),
    FtTokenType.REAL: ("lit", "real-lit"),
    FtTokenType.STRING: ("lit", "str-lit"),
    FtTokenType.LOGICAL: ("lit", "logical-lit"),
    FtTokenType.DOTOP: ("kw", None),
}


def _token_node(tok: FtToken) -> Optional[Node]:
    """The T_src node of one token; ``None`` for comments and punctuation."""
    if tok.type is FtTokenType.DIRECTIVE:
        return _directive_node(tok)
    leaf = _LEAVES.get(tok.type)
    if leaf is None:
        return None
    kind, label = leaf
    span = SourceSpan(tok.file, tok.line)
    if label is None:
        return Node(tok.text, kind, None, span)
    return Node(label, kind, None, span, {"text": tok.text})


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


def _statement(line: list[FtToken]) -> Node:
    """The statement node of one token line, with its paren groups."""
    first = line[0]
    stmt = Node("stmt", "cst-stmt", None, SourceSpan(first.file, first.line))
    gstack = [stmt]
    for tk in line:
        if tk.type is FtTokenType.PUNCT:
            if tk.text == "(":
                g = Node("paren-group", "group", None, SourceSpan(tk.file, tk.line))
                gstack[-1].add(g)
                gstack.append(g)
                continue
            if tk.text == ")":
                if len(gstack) > 1:
                    gstack.pop()
                continue
        nd = _token_node(tk)
        if nd is not None:
            gstack[-1].add(nd)
    return stmt


def fortran_src_tree(tokens: list[FtToken], path: str = "<memory>") -> Node:
    """``T_src`` of one Fortran file's tokens: file → statements/blocks →
    tokens."""
    root = Node("file", "cst", None, None, {"path": path})
    # open blocks, innermost last
    stack: list[Node] = [root]
    line: list[FtToken] = []
    for tok in tokens:
        if tok.type not in (FtTokenType.NEWLINE, FtTokenType.EOF):
            line.append(tok)
            continue
        if not line:
            continue
        stmt = _statement(line)
        head = line[0]
        head_word = head.text if head.type is FtTokenType.KEYWORD else ""
        if head_word == "end" or head_word in ("enddo", "endif"):
            if len(stack) > 1:
                stack.pop()
            stack[-1].add(stmt)
        elif head_word in _BLOCK_OPENERS and (
            head_word != "if"
            or any(t.text == "then" for t in line if t.type is FtTokenType.KEYWORD)
        ):
            block = Node(f"{head_word}-block", "block", [stmt], stmt.span)
            stack[-1].add(block)
            stack.append(block)
        else:
            stack[-1].add(stmt)
        line = []
    return root
