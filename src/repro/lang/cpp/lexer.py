"""MiniC++ lexer.

Produces the *complete* token stream including trivia (whitespace and
comments). The preprocessor lexes each file of a unit once and hands the
full stream on, so one lex feeds every consumer: the preprocessor itself
(line structure matters for directives), SLOC/LLOC counting
(Nguyen-style whitespace/comment normalisation), ``T_src`` pre (which
drops trivia and punctuation) and, through the preprocessed stream,
``T_src`` post and the parser. A directive is one :class:`DirectiveToken`
whose body is lexed here, once, so those consumers all read its tokens.

A content-keyed memo serves repeated ``(file, text)`` lexes: every port of
an app includes the same headers. Only clean lexes are kept: a clean lex
has the same tokens in strict and tolerant mode (directive bodies ride on
their tokens), while a lex that repaired anything is redone on every call
so its diagnostics are emitted every time.
"""

from __future__ import annotations

import re
import threading
from collections import OrderedDict
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Optional

from repro import diag, obs
from repro.util.errors import ParseError


class TokenType(Enum):
    IDENT = "ident"
    KEYWORD = "keyword"
    INT = "int-lit"
    FLOAT = "float-lit"
    STRING = "str-lit"
    CHAR = "char-lit"
    PUNCT = "punct"
    DIRECTIVE = "directive"  # a whole preprocessor line: a DirectiveToken
    COMMENT = "comment"
    WHITESPACE = "ws"
    NEWLINE = "nl"
    EOF = "eof"


#: C++ keywords recognised by MiniC++ (subset + dialect extensions).
KEYWORDS = frozenset(
    """
    auto bool break case char class const constexpr continue default delete
    do double else enum extern false float for if inline int long namespace
    new nullptr operator private public return short signed sizeof static
    struct switch template this true typedef typename union unsigned using
    void volatile while
    __global__ __device__ __host__ __shared__ __restrict__
    """.split()
)

#: Multi-character punctuators, longest-match-first.
_PUNCTS = [
    "<<<", ">>>",
    "<<=", ">>=", "...", "->*", "::",
    "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "+", "-", "*", "/", "%", "<", ">", "=", "!", "&", "|", "^", "~",
    "(", ")", "[", "]", "{", "}", ",", ";", ":", "?", ".", "#",
]


@dataclass(frozen=True, slots=True)
class Token:
    """One lexical token with its original source location."""

    type: TokenType
    text: str
    file: str
    line: int
    col: int

    @property
    def is_trivia(self) -> bool:
        return self.type in (TokenType.WHITESPACE, TokenType.NEWLINE, TokenType.COMMENT)

    def __repr__(self) -> str:
        return f"Token({self.type.value}, {self.text!r}, {self.file}:{self.line})"


@dataclass(frozen=True, slots=True, repr=False)
class DirectiveToken(Token):
    """A preprocessor line, split once: ``name`` is the word after ``#``,
    ``body`` the significant tokens after it, lexed in the file's mode where
    they stand (a continued line is one logical line), and ``rest`` their
    raw text. A strict-mode body that does not lex has ``body`` ``None``,
    ``error`` set and ``rest`` the whole remainder."""

    name: str
    rest: str
    body: Optional[tuple[Token, ...]]
    error: Optional[ParseError] = None

    def tokens(self) -> tuple[Token, ...]:
        """The body tokens; raises the body's lex error if it did not lex."""
        if self.body is None:
            raise self.error
        return self.body


#: Bound of the lex memo, in characters of source text held; the least
#: recently used entries go first. A cold index of the whole corpus lexes
#: about 101 k distinct characters, so it never evicts; the bound caps
#: long-lived processes (the serve daemon, the fuzz harness).
MEMO_CHARS = 1_000_000

_memo: OrderedDict[tuple[str, str], tuple[Token, ...]] = OrderedDict()
_memo_chars = 0
# the memo is process-wide, and a library caller may lex from several threads
_memo_lock = threading.Lock()


def lex(text: str, file: str = "<memory>", tolerant: bool = False) -> list[Token]:
    """Tokenise MiniC++ source; raises :class:`ParseError` on bad input.

    With ``tolerant=True``, lexical errors (unterminated comments/literals,
    unexpected characters) are repaired in place — the broken region is
    kept as the nearest sensible token, a diagnostic is emitted, and lexing
    continues. Used by the fault-tolerant indexing path.

    A repeated clean ``(file, text)`` returns a fresh list of the memoised
    (frozen) tokens; ``lex.cpp.calls`` / ``lex.cpp.tokens`` count lexing
    actually done and ``lex.cpp.memo_hits`` the calls the memo served.
    """
    key = (file, text)
    with _memo_lock:
        hit = _memo.get(key)
        if hit is not None:
            _memo.move_to_end(key)
    if hit is not None:
        if obs.enabled():
            obs.add("lex.cpp.memo_hits")
        return list(hit)
    repairs: list[str] = []
    tokens = list(_lex_iter(text, file, tolerant, repairs))
    if obs.enabled():
        obs.add("lex.cpp.calls")
        obs.add("lex.cpp.tokens", len(tokens))
    if not repairs:
        _remember(key, tuple(tokens))
    return tokens


def _remember(key: tuple[str, str], tokens: tuple[Token, ...]) -> None:
    global _memo_chars
    size = len(key[1])
    if size > MEMO_CHARS:
        return
    with _memo_lock:
        if key in _memo:
            return
        _memo[key] = tokens
        _memo_chars += size
        while _memo_chars > MEMO_CHARS:
            (_file, old), _tokens = _memo.popitem(last=False)
            _memo_chars -= len(old)


def clear_lex_memo() -> None:
    """Forget every memoised lex (tests that count lexing work)."""
    global _memo_chars
    with _memo_lock:
        _memo.clear()
        _memo_chars = 0


def _lex_iter(
    text: str, file: str, tolerant: bool, repairs: list[str], line: int = 1, col: int = 1
) -> Iterator[Token]:
    """Tokens of ``text`` from ``line``:``col`` (a directive body, past column
    1, holds no directive); each repair appends its code to ``repairs``."""
    i = 0
    n = len(text)
    at_line_start = col == 1

    def make(tt: TokenType, s: str, ln: int, c: int) -> Token:
        return Token(tt, s, file, ln, c)

    while i < n:
        ch = text[i]
        start_line, start_col = line, col

        # newline
        if ch == "\n":
            yield make(TokenType.NEWLINE, "\n", line, col)
            i += 1
            line += 1
            col = 1
            at_line_start = True
            continue

        # horizontal whitespace
        if ch in " \t\r":
            j = i
            while j < n and text[j] in " \t\r":
                j += 1
            yield make(TokenType.WHITESPACE, text[i:j], start_line, start_col)
            col += j - i
            i = j
            continue

        # preprocessor directive: '#' first non-ws on the line; consume the
        # whole (possibly continued) line as one DIRECTIVE token.
        if ch == "#" and at_line_start:
            raw = _DIRECTIVE_LINE.match(text, i).group()
            yield _directive(raw, file, start_line, start_col, tolerant, repairs)
            line += raw.count("\n")
            col = 1  # continuation handling resets precision; directives end lines
            i += len(raw)
            at_line_start = False
            continue

        at_line_start = False

        # comments
        if ch == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            if j == -1:
                j = n
            yield make(TokenType.COMMENT, text[i:j], start_line, start_col)
            col += j - i
            i = j
            continue
        if ch == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            if j == -1:
                if not tolerant:
                    raise ParseError("unterminated block comment", file, start_line, start_col)
                repairs.append("lex/unterminated-comment")
                diag.warning(
                    "lex/unterminated-comment",
                    "unterminated block comment (treated as running to end of file)",
                    file, start_line, start_col,
                )
                j = n - 2  # consume to EOF
            j += 2
            segment = text[i:j]
            yield make(TokenType.COMMENT, segment, start_line, start_col)
            nl = segment.count("\n")
            if nl:
                line += nl
                col = len(segment) - segment.rfind("\n")
            else:
                col += len(segment)
            i = j
            continue

        # string / char literals
        if ch == '"' or ch == "'":
            quote = ch
            j = i + 1
            broken = False
            while j < n and text[j] != quote:
                if text[j] == "\\":
                    j += 1
                if j < n and text[j] == "\n":
                    broken = True
                    break
                j += 1
            if j >= n:
                broken = True
                j = n
            if broken:
                if not tolerant:
                    raise ParseError("unterminated literal", file, start_line, start_col)
                repairs.append("lex/unterminated-literal")
                diag.warning(
                    "lex/unterminated-literal",
                    "unterminated literal (closed at end of line)",
                    file, start_line, start_col,
                )
            else:
                j += 1  # include the closing quote
            tt = TokenType.STRING if quote == '"' else TokenType.CHAR
            yield make(tt, text[i:j], start_line, start_col)
            col += j - i
            i = j
            continue

        # numbers
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            is_float = False
            if text[j : j + 2].lower() == "0x":
                j += 2
                while j < n and (text[j].isalnum()):
                    j += 1
            else:
                while j < n and text[j].isdigit():
                    j += 1
                if j < n and text[j] == ".":
                    is_float = True
                    j += 1
                    while j < n and text[j].isdigit():
                        j += 1
                if j < n and text[j] in "eE":
                    k = j + 1
                    if k < n and text[k] in "+-":
                        k += 1
                    if k < n and text[k].isdigit():
                        is_float = True
                        j = k
                        while j < n and text[j].isdigit():
                            j += 1
                # suffixes
                while j < n and text[j] in "fFlLuU":
                    if text[j] in "fF":
                        is_float = True
                    j += 1
            tt = TokenType.FLOAT if is_float else TokenType.INT
            yield make(tt, text[i:j], start_line, start_col)
            col += j - i
            i = j
            continue

        # identifiers / keywords
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            tt = TokenType.KEYWORD if word in KEYWORDS else TokenType.IDENT
            yield make(tt, word, start_line, start_col)
            col += j - i
            i = j
            continue

        # punctuation (longest match first)
        for p in _PUNCTS:
            if text.startswith(p, i):
                yield make(TokenType.PUNCT, p, start_line, start_col)
                col += len(p)
                i += len(p)
                break
        else:
            if not tolerant:
                raise ParseError(f"unexpected character {ch!r}", file, start_line, start_col)
            repairs.append("lex/unexpected-char")
            diag.warning(
                "lex/unexpected-char",
                f"unexpected character {ch!r} (skipped)",
                file, start_line, start_col,
            )
            col += 1
            i += 1

    yield Token(TokenType.EOF, "", file, line, col)


#: a directive line with its continuations; ``#``, its name and the blanks after
_DIRECTIVE_LINE = re.compile(r"#(?:\\\n|[^\n])*")
_DIRECTIVE_NAME = re.compile(r"#\s*(\S*)\s*")


def _directive(
    raw: str, file: str, line: int, col: int, tolerant: bool, repairs: list[str]
) -> DirectiveToken:
    """Split one directive line and lex its body where it stands."""
    m = _DIRECTIVE_NAME.match(raw.replace("\\\n", " "))
    rest, start = m.string[m.end() :].rstrip(), col + m.end()
    try:
        body = tuple(significant(_lex_iter(rest, file, tolerant, repairs, line, start)))
    except ParseError as e:  # strict mode only
        repairs.append("lex/directive-body")
        diag.warning(
            "lex/directive-body",
            f"directive body does not lex as C++ ({e.message}); keeping raw text",
            file, e.line, e.col,
        )
        return DirectiveToken(TokenType.DIRECTIVE, raw, file, line, col, m[1], rest, None, e)
    rest = rest[body[0].col - start : body[-1].col - start + len(body[-1].text)] if body else ""
    return DirectiveToken(TokenType.DIRECTIVE, raw, file, line, col, m[1], rest, body)


def significant(tokens: Iterable[Token]) -> list[Token]:
    """Strip trivia (whitespace/comments/newlines) for the parser."""
    return [t for t in tokens if not t.is_trivia and t.type is not TokenType.EOF]
