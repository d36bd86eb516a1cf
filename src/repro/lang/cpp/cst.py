"""Concrete syntax trees and the normalised ``T_src`` (paper §III-A, §IV-C).

The paper obtains CSTs from tree-sitter because compiler plugin APIs expose
no parse tree. Our from-scratch analogue builds a lossless bracket-structure
tree over the full token stream (every token kept, trivia included), then
``normalized_src_tree`` filters it the way the paper filters tree-sitter
output: whitespace, comments and "anonymous" control tokens (punctuation)
are dropped, leaving the tokenised view a syntax highlighter would show.

Two CST flavours exist per unit, matching "languages that include a
preprocessing phase will yield two T_src": ``pre`` (the raw file, with
directives as nodes) and ``post`` (the preprocessed token stream, where
included headers and macro expansions are visible).
"""

from __future__ import annotations

from typing import Optional

from repro import diag
from repro.lang.cpp.lexer import Token, TokenType, lex
from repro.lang.cpp.preprocessor import preprocess
from repro.lang.source import VirtualFS
from repro.trees.node import Node, SourceSpan
from repro.util.errors import ParseError

_OPEN = {"(": ")", "[": "]", "{": "}"}
_CLOSE = {")", "]", "}"}

#: Group labels by their opening bracket.
_GROUP_LABEL = {"(": "paren-group", "[": "bracket-group", "{": "brace-group"}


def _token_node(tok: Token) -> Node:
    """One CST leaf per token, labelled by lexical class."""
    span = SourceSpan(tok.file, tok.line)
    if tok.type is TokenType.KEYWORD:
        return Node(tok.text, "kw", None, span)
    if tok.type is TokenType.IDENT:
        return Node(tok.text, "ident", None, span)
    if tok.type is TokenType.INT:
        return Node("int-lit", "lit", None, span, {"text": tok.text})
    if tok.type is TokenType.FLOAT:
        return Node("float-lit", "lit", None, span, {"text": tok.text})
    if tok.type is TokenType.STRING:
        return Node("str-lit", "lit", None, span, {"text": tok.text})
    if tok.type is TokenType.CHAR:
        return Node("char-lit", "lit", None, span, {"text": tok.text})
    if tok.type is TokenType.COMMENT:
        return Node("comment", "trivia", None, span)
    if tok.type in (TokenType.WHITESPACE, TokenType.NEWLINE):
        return Node("ws", "trivia", None, span)
    if tok.type is TokenType.DIRECTIVE:
        return _directive_node(tok)
    return Node(tok.text, "punct", None, span)


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
                if not t.is_trivia and t.type is not TokenType.EOF
            ]
            for child in children:
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


def build_cst(tokens: list[Token], path: str = "<memory>") -> Node:
    """Lossless bracket-structure CST over a token stream."""
    root = Node("file", "cst", None, None, {"path": path})
    stack = [root]
    for tok in tokens:
        if tok.type is TokenType.EOF:
            continue
        if tok.text in _OPEN and tok.type is TokenType.PUNCT:
            group = Node(
                _GROUP_LABEL[tok.text], "group", None, SourceSpan(tok.file, tok.line)
            )
            stack[-1].add(group)
            stack.append(group)
            continue
        if tok.text in _CLOSE and tok.type is TokenType.PUNCT:
            if len(stack) > 1:
                top = stack.pop()
                if top.span is not None and tok.file == top.span.file:
                    top.span = SourceSpan(
                        top.span.file, top.span.line_start, max(tok.line, top.span.line_start)
                    )
            continue
        stack[-1].add(_token_node(tok))
    return root


def cst_pre(fs: VirtualFS, path: str) -> Node:
    """Pre-preprocessor CST of one file (directives visible as nodes)."""
    return build_cst(lex(fs.get(path).text, path), path)


def cst_post(fs: VirtualFS, path: str, defines: Optional[dict[str, str]] = None) -> Node:
    """Post-preprocessor CST of a unit (headers/macros expanded in)."""
    pp = preprocess(fs, path, defines)
    return build_cst(pp.tokens, path)


#: Labels of CST nodes removed by T_src normalisation.
_ANON_KINDS = frozenset({"trivia", "punct"})


def normalized_src_tree(cst: Node) -> Node:
    """``T_src``: drop trivia and anonymous punctuation, keep the rest.

    Group nodes survive (they carry nesting structure, as tree-sitter's
    named nodes do); keyword, identifier, literal and directive nodes
    survive. Identifier *names* are erased later by the shared TED name
    normalisation.
    """

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
