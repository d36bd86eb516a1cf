"""Free-form Fortran lexer.

Statement-oriented: newlines are significant (statement separators), ``&``
continuations are joined, ``!`` comments are trivia *except* the ``!$omp`` /
``!$acc`` sentinels, which become DIRECTIVE tokens — the "semantic-bearing
information in unusual places" provision of §III-C.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro import diag, obs
from repro.util.errors import ParseError


class FtTokenType(Enum):
    IDENT = "ident"
    KEYWORD = "keyword"
    INT = "int-lit"
    REAL = "real-lit"
    STRING = "str-lit"
    LOGICAL = "logical-lit"
    DOTOP = "dotop"  # .and. .or. .not. ...
    PUNCT = "punct"
    DIRECTIVE = "directive"
    COMMENT = "comment"
    NEWLINE = "nl"
    EOF = "eof"


KEYWORDS = frozenset(
    """
    program module subroutine function end use implicit none integer real
    logical character parameter allocatable dimension intent in out inout
    allocate deallocate do concurrent while if then else elseif endif enddo
    call return print write read contains result kind stop exit cycle
    select case default pure elemental interface procedure type public
    private save target pointer data where forall
    """.split()
)

_PUNCTS = [
    "::", "=>", "==", "/=", "<=", ">=", "**", "(", ")", ",", "=", "+", "-",
    "*", "/", "<", ">", ":", ";", "%", "[", "]",
]


@dataclass(frozen=True, slots=True)
class FtToken:
    type: FtTokenType
    text: str
    file: str
    line: int
    col: int

    @property
    def is_trivia(self) -> bool:
        return self.type is FtTokenType.COMMENT

    def __repr__(self) -> str:
        return f"FtToken({self.type.value}, {self.text!r}, {self.file}:{self.line})"


def lex_fortran(text: str, file: str = "<memory>", tolerant: bool = False) -> list[FtToken]:
    """Tokenise free-form Fortran source (continuations already joined).

    With ``tolerant=True``, lexical damage (unterminated strings, stray
    characters) is repaired in place and reported as ``lex/*`` warnings
    instead of raising :class:`ParseError`.
    """
    out: list[FtToken] = []
    lines = text.splitlines()
    # Join '&' continuations, tracking the first line number of each joined
    # logical line (directives continue with '!$omp &' on the next line).
    logical: list[tuple[int, str]] = []
    buf = ""
    buf_line = 0
    for idx, ln in enumerate(lines, start=1):
        stripped = ln.rstrip()
        if buf:
            cont = stripped.lstrip()
            low = cont.lower()
            if low.startswith("!$omp") or low.startswith("!$acc"):
                cont = cont[5:].lstrip()
                if cont.startswith("&"):
                    cont = cont[1:]
            body = cont
            if body.endswith("&"):
                buf += " " + body[:-1].rstrip()
                continue
            buf += " " + body
            logical.append((buf_line, buf))
            buf = ""
            continue
        if stripped.endswith("&") and not stripped.lstrip().startswith("!"):
            buf = stripped[:-1].rstrip()
            buf_line = idx
            continue
        low = stripped.lstrip().lower()
        if (low.startswith("!$omp") or low.startswith("!$acc")) and stripped.rstrip().endswith("&"):
            buf = stripped.rstrip()[:-1].rstrip()
            buf_line = idx
            continue
        logical.append((idx, stripped))

    if buf:
        logical.append((buf_line, buf))

    for lineno, ln in logical:
        _lex_line(ln, lineno, file, out, tolerant)
        out.append(FtToken(FtTokenType.NEWLINE, "\n", file, lineno, len(ln) + 1))
    out.append(FtToken(FtTokenType.EOF, "", file, len(lines) + 1, 1))
    if obs.enabled():
        obs.add("lex.fortran.calls")
        obs.add("lex.fortran.tokens", len(out))
    return out


def _lex_line(ln: str, lineno: int, file: str, out: list[FtToken], tolerant: bool = False) -> None:
    i = 0
    n = len(ln)
    while i < n:
        ch = ln[i]
        col = i + 1
        if ch in " \t":
            i += 1
            continue
        if ch == "!":
            rest = ln[i:]
            low = rest.lower()
            if low.startswith("!$omp") or low.startswith("!$acc"):
                out.append(FtToken(FtTokenType.DIRECTIVE, rest, file, lineno, col))
            else:
                # a '!$'-prefixed comment that is not a known sentinel (and
                # not the bare '!$ ' conditional-compilation form) is almost
                # certainly a typo'd directive — flag it rather than letting
                # it vanish as an ordinary comment
                if low.startswith("!$") and low[2:3] not in ("", " ", "\t", "&"):
                    diag.warning(
                        "lex/unknown-sentinel",
                        f"unknown directive sentinel {rest.split()[0]!r} (treated as comment)",
                        file, lineno, col,
                    )
                out.append(FtToken(FtTokenType.COMMENT, rest, file, lineno, col))
            return
        if ch == ";":
            out.append(FtToken(FtTokenType.NEWLINE, ";", file, lineno, col))
            i += 1
            continue
        if ch in "'\"":
            j = i + 1
            while j < n and ln[j] != ch:
                j += 1
            if j >= n:
                if not tolerant:
                    raise ParseError("unterminated string", file, lineno, col)
                diag.warning(
                    "lex/unterminated-literal",
                    "unterminated string (closed at end of line)",
                    file, lineno, col,
                )
                out.append(FtToken(FtTokenType.STRING, ln[i:] + ch, file, lineno, col))
                i = n
                continue
            out.append(FtToken(FtTokenType.STRING, ln[i : j + 1], file, lineno, col))
            i = j + 1
            continue
        if ch == "." and i + 1 < n and ln[i + 1].isalpha():
            j = ln.find(".", i + 1)
            if j != -1:
                word = ln[i : j + 1].lower()
                if word in (".true.", ".false."):
                    out.append(FtToken(FtTokenType.LOGICAL, word, file, lineno, col))
                    i = j + 1
                    continue
                if word in (".and.", ".or.", ".not.", ".eqv.", ".neqv.", ".lt.", ".le.", ".gt.", ".ge.", ".eq.", ".ne."):
                    out.append(FtToken(FtTokenType.DOTOP, word, file, lineno, col))
                    i = j + 1
                    continue
        if ch.isdigit() or (ch == "." and i + 1 < n and ln[i + 1].isdigit()):
            j = i
            is_real = False
            while j < n and ln[j].isdigit():
                j += 1
            if j < n and ln[j] == "." and not (j + 1 < n and ln[j + 1].isalpha()):
                is_real = True
                j += 1
                while j < n and ln[j].isdigit():
                    j += 1
            if j < n and ln[j] in "eEdD":
                k = j + 1
                if k < n and ln[k] in "+-":
                    k += 1
                if k < n and ln[k].isdigit():
                    is_real = True
                    j = k
                    while j < n and ln[j].isdigit():
                        j += 1
            if j < n and ln[j] == "_":  # kind suffix: 1.0_dp
                j += 1
                while j < n and (ln[j].isalnum() or ln[j] == "_"):
                    j += 1
                is_real = True
            tt = FtTokenType.REAL if is_real else FtTokenType.INT
            out.append(FtToken(tt, ln[i:j], file, lineno, col))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (ln[j].isalnum() or ln[j] == "_"):
                j += 1
            word = ln[i:j]
            low = word.lower()
            tt = FtTokenType.KEYWORD if low in KEYWORDS else FtTokenType.IDENT
            out.append(FtToken(tt, low if tt is FtTokenType.KEYWORD else word, file, lineno, col))
            i = j
            continue
        for p in _PUNCTS:
            if ln.startswith(p, i):
                out.append(FtToken(FtTokenType.PUNCT, p, file, lineno, col))
                i += len(p)
                break
        else:
            if not tolerant:
                raise ParseError(f"unexpected character {ch!r}", file, lineno, col)
            diag.warning(
                "lex/unexpected-char",
                f"unexpected character {ch!r} (skipped)",
                file, lineno, col,
            )
            i += 1


def significant(tokens: list[FtToken]) -> list[FtToken]:
    """Drop comments; keep newlines (statement separators) and directives."""
    return [t for t in tokens if t.type is not FtTokenType.COMMENT]
