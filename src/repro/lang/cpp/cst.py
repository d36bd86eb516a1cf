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

from repro import diag
from repro.lang.cpp.lexer import Token, TokenType, lex
from repro.trees.node import Node, SourceSpan
from repro.util.errors import ParseError

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


def _directive_node(tok: Token) -> Node:
    """Directives become small subtrees so pragma words stay visible.

    OpenMP/OpenACC semantic words are retained with their text (the paper
    makes "special provisions for language that store semantic-bearing
    information in unusual places").
    """
    body = tok.text.lstrip()[1:].replace("\\\n", " ").strip()
    span = SourceSpan(tok.file, tok.line)
    words = body.split()
    name = words[0] if words else ""
    node = Node(f"directive:{name}", "directive", None, span)
    rest = body[len(name) :].strip()
    if rest:
        try:
            # lex the whole body before adding any child: a body that does
            # not lex leaves the directive without partial children
            children = [
                _token_node(Token(t.type, t.text, tok.file, tok.line, t.col))
                for t in lex(rest, tok.file)
            ]
            for child in children:
                if child is not None:
                    node.add(child)
        except ParseError as e:
            # The directive body does not lex as C++ (e.g. an include path
            # with a stray quote). Keep the raw text — word per node — so
            # T_src still sees the directive's content, and say so.
            diag.warning(
                "lex/directive-body",
                f"directive body does not lex as C++ ({e}); keeping raw text",
                tok.file, tok.line, tok.col,
            )
            for word in rest.split():
                node.add(Node(word, "tok", None, span))
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
