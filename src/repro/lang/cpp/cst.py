"""``T_src``: the bracket-structured token tree (paper §III-A, §IV-C).

The paper obtains CSTs from tree-sitter because compiler plugin APIs expose
no parse tree, and keeps what a syntax highlighter shows: whitespace,
comments and "anonymous" control tokens (punctuation) are dropped. Our
from-scratch analogue builds that view straight from the token stream:
brackets become group nodes that carry the nesting, every keyword,
identifier, literal and directive token becomes a node, and trivia and
other punctuation make no node at all. No lossless CST is built first.
Identifiers keep their text: T_src holds no node kind that name
normalisation renames (DESIGN.md §1).

Two T_src flavours exist per unit, matching "languages that include a
preprocessing phase will yield two T_src": ``pre`` (the raw file, with
directives as nodes) and ``post`` (the preprocessed token stream, where
included headers and macro expansions are visible); the indexer builds
both with :func:`src_tree`.
"""

from __future__ import annotations

from typing import Optional

from repro.lang.cpp.lexer import DirectiveToken, Token, TokenType
from repro.trees.node import Node, SourceSpan

#: Group labels by their opening bracket.
_GROUP_LABEL = {"(": "paren-group", "[": "bracket-group", "{": "brace-group"}
_CLOSE = {")", "]", "}"}

#: ``(kind, label)`` of the T_src leaf of each token class that makes one;
#: a ``None`` label keeps the token's text. Trivia and punctuation make none.
_LEAVES = {
    TokenType.KEYWORD: ("kw", None),
    TokenType.IDENT: ("ident", None),
    TokenType.INT: ("lit", "int-lit"),
    TokenType.FLOAT: ("lit", "float-lit"),
    TokenType.STRING: ("lit", "str-lit"),
    TokenType.CHAR: ("lit", "char-lit"),
}


def _token_node(tok: Token) -> Optional[Node]:
    """The T_src node of one token, labelled by lexical class; ``None`` for
    trivia and punctuation."""
    if tok.type is TokenType.DIRECTIVE:
        return _directive_node(tok)
    leaf = _LEAVES.get(tok.type)
    if leaf is None:
        return None
    kind, label = leaf
    span = SourceSpan(tok.file, tok.line)
    if label is None:
        return Node(tok.text, kind, None, span)
    return Node(label, kind, None, span, {"text": tok.text})


def _directive_node(tok: DirectiveToken) -> Node:
    """Directives become small subtrees so pragma words stay visible.

    OpenMP/OpenACC semantic words are retained with their text (the paper
    makes "special provisions for language that store semantic-bearing
    information in unusual places"). The children are the lexer's body
    tokens, or the raw words of a strict-mode body that does not lex.
    """
    span = SourceSpan(tok.file, tok.line)
    node = Node(f"directive:{tok.name}", "directive", None, span)
    if tok.body is None:
        for word in tok.rest.split():
            node.add(Node(word, "tok", None, span))
    else:
        for child in map(_token_node, tok.body):
            if child is not None:
                node.add(child)
    return node


def src_tree(tokens: list[Token], path: str = "<memory>") -> Node:
    """``T_src`` of a token stream: bracket groups nest, and a group's span
    runs to its closing bracket's line when that is in the same file."""
    root = Node("file", "cst", None, None, {"path": path})
    stack = [root]
    for tok in tokens:
        if tok.type is TokenType.PUNCT:
            label = _GROUP_LABEL.get(tok.text)
            if label is not None:
                group = Node(label, "group", None, SourceSpan(tok.file, tok.line))
                stack[-1].add(group)
                stack.append(group)
                continue
            if tok.text in _CLOSE:
                if len(stack) > 1:
                    top = stack.pop()
                    if top.span is not None and tok.file == top.span.file:
                        top.span = SourceSpan(
                            top.span.file, top.span.line_start, max(tok.line, top.span.line_start)
                        )
                continue
        node = _token_node(tok)
        if node is not None:
            stack[-1].add(node)
    return root
