"""MiniC++ preprocessor.

Supports the directive set the corpus uses: ``#include`` (quoted/angled,
resolved through the :class:`~repro.lang.source.VirtualFS`), object- and
function-like ``#define`` with rescanning, ``#undef``, the conditional
family (``#if/#ifdef/#ifndef/#elif/#else/#endif`` with ``defined()`` and
integer expressions), and ``#pragma``.

Two behaviours the paper depends on are modelled explicitly:

* **Pragma retention** — ``#pragma omp``/``#pragma acc`` lines survive
  preprocessing as first-class tokens so the parser can turn them into
  semantic AST nodes ("OpenMP pragmas are identified and retained even
  after preprocessing and normalisation steps", §III-C).
* **Expansion bookkeeping** — every emitted token keeps its *original*
  file/line, so the post-preprocessor T_src attributes included/expanded
  code to the header it came from. This is what makes the SYCL
  ``Source+pp`` blow-up (§V-C) measurable: the 20 MB ``<CL/sycl.hpp>``
  analogue lands in the unit.

Each file is lexed once, in the caller's mode: ``recover=True`` repairs
lexical damage in every file it reads, directive bodies included, and the
result hands each file's full token list on, so the indexer's line
summaries and ``T_src`` pre need no lex of their own. Directives are read
from the name and body tokens the lexer split off; a strict-mode body that
did not lex raises only in an active ``#define``, ``#if`` or ``#elif``.

Simplification (documented): all files behave as if they start with
``#pragma once`` — including a file already read, the main file too, is a
no-op. Every header in the corpus uses include guards anyway, so this is
behaviour-preserving while keeping the conditional stack simpler.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NoReturn, Optional

from repro.lang.cpp.lexer import DirectiveToken, Token, TokenType, lex, significant
from repro.lang.source import VirtualFS
from repro.util.errors import ParseError


@dataclass
class Macro:
    name: str
    params: Optional[list[str]]  # None = object-like
    body: list[Token]
    variadic: bool = False


@dataclass
class PreprocessResult:
    """Output of preprocessing one translation unit."""

    tokens: list[Token]  # significant tokens + retained pragma DIRECTIVEs
    macros: dict[str, Macro]
    #: the full token list (trivia and directives included) of the main
    #: file and of every dependency, in the order they were read
    file_tokens: dict[str, list[Token]]
    #: (file, line) pairs of lines removed by failed conditionals
    skipped_lines: list[tuple[str, int]] = field(default_factory=list)

    @property
    def dependencies(self) -> list[str]:
        """Every file pulled in, in first-include order."""
        return list(self.file_tokens)[1:]


_PRAGMA_KEEP_PREFIXES = ("omp", "acc")


def preprocess(
    fs: VirtualFS,
    path: str,
    defines: Optional[dict[str, str]] = None,
    recover: bool = False,
) -> PreprocessResult:
    """Run the preprocessor over ``path`` within ``fs``.

    ``defines`` are ``-D`` style command-line macros (value defaults "1").
    ``recover=True`` lexes tolerantly: a lexical error becomes a ``lex/*``
    warning and a repaired token instead of a :class:`ParseError`.
    Directive errors (an unterminated ``#if``, a missing include) still
    raise in either mode.
    """
    pp = _Preprocessor(fs, recover)
    for name, val in (defines or {}).items():
        body = significant(lex(val or "1", "<cmdline>", tolerant=recover))
        pp.macros[name] = Macro(name, None, body)
    tokens = pp.process_file(path)
    return PreprocessResult(tokens, pp.macros, pp.file_tokens, pp.skipped)


class _Preprocessor:
    def __init__(self, fs: VirtualFS, recover: bool):
        self.fs = fs
        self.recover = recover
        self.macros: dict[str, Macro] = {}
        #: every file read, main file first; a file is read at most once
        self.file_tokens: dict[str, list[Token]] = {}
        self.skipped: list[tuple[str, int]] = []

    # -- file / line structure --------------------------------------------
    def process_file(self, path: str) -> list[Token]:
        raw = lex(self.fs.get(path).text, path, tolerant=self.recover)
        self.file_tokens[path] = raw
        out: list[Token] = []
        # conditional stack: (taking, any_branch_taken)
        cond: list[tuple[bool, bool]] = []
        line_buf: list[Token] = []

        def active() -> bool:
            return all(t for t, _ in cond)

        def flush_line() -> None:
            if line_buf:
                out.extend(self.expand(line_buf))
                line_buf.clear()

        for tok in raw:
            if tok.type is TokenType.DIRECTIVE:
                flush_line()
                self._directive(tok, cond, out, active)
                continue
            if tok.type is TokenType.EOF:
                break
            if tok.is_trivia:
                if tok.type is TokenType.NEWLINE:
                    flush_line()
                continue
            if not active():
                self.skipped.append((tok.file, tok.line))
                continue
            line_buf.append(tok)
        flush_line()
        if cond:
            raise ParseError("unterminated #if block", path, 0, 0)
        return out

    # -- directives ---------------------------------------------------------
    def _directive(self, tok: DirectiveToken, cond: list, out: list[Token], active) -> None:
        name, rest = tok.name, tok.rest
        if not name:
            return  # null directive

        if name in ("ifdef", "ifndef"):
            sym = rest.split()[0] if rest else ""
            truth = (sym in self.macros) if name == "ifdef" else (sym not in self.macros)
            taking = active() and truth
            cond.append((taking, taking))
            return
        if name == "if":
            truth = bool(self._eval_expr(tok)) if active() else False
            taking = active() and truth
            cond.append((taking, taking))
            return
        if name in ("elif", "else"):
            if not cond:
                raise ParseError(f"#{name} without #if", tok.file, tok.line, tok.col)
            _, taken = cond.pop()
            outer_active = all(t for t, _ in cond)
            if name == "else":
                cond.append((outer_active and not taken, True))
            else:
                truth = (not taken) and outer_active and bool(self._eval_expr(tok))
                cond.append((truth, taken or truth))
            return
        if name == "endif":
            if not cond:
                raise ParseError("#endif without #if", tok.file, tok.line, tok.col)
            cond.pop()
            return

        if not active():
            self.skipped.append((tok.file, tok.line))
            return

        if name == "include":
            self._include(tok, out)
            return
        if name == "define":
            self._define(tok)
            return
        if name == "undef":
            sym = rest.split()[0] if rest else ""
            self.macros.pop(sym, None)
            return
        if name == "pragma":
            if rest == "once":
                return  # every file is read at most once anyway
            if rest and rest.split()[0] in _PRAGMA_KEEP_PREFIXES:
                # Retained pragma, passed on as lexed: its clauses are not
                # macro-expanded (DESIGN.md §"T_src and T_sem passes").
                out.append(tok)
            return
        if name in ("error", "warning"):
            if name == "error":
                raise ParseError(f"#error {rest}", tok.file, tok.line, tok.col)
            return
        raise ParseError(f"unknown directive #{name}", tok.file, tok.line, tok.col)

    def _include(self, tok: DirectiveToken, out: list[Token]) -> None:
        spec = tok.rest  # the lexer left out any comment around the name
        if spec[:1] + spec[-1:] not in ('""', "<>"):
            raise ParseError(f"malformed #include {spec!r}", tok.file, tok.line, tok.col)
        name, angled = spec[1:-1], spec[0] == "<"
        resolved = self.fs.resolve_include(name, tok.file, angled)
        if resolved is None:
            raise ParseError(f"include not found: {spec}", tok.file, tok.line, tok.col)
        if resolved in self.file_tokens:
            return
        out.extend(self.process_file(resolved))

    def _define(self, tok: DirectiveToken) -> None:
        toks = tok.tokens()
        if not toks:
            raise ParseError("#define needs a name", tok.file, tok.line, tok.col)
        name = toks[0].text
        params: Optional[list[str]] = None
        body_start = 1
        variadic = False
        # function-like iff '(' is adjacent to the name
        if len(toks) > 1 and toks[1].text == "(" and toks[1].col == toks[0].col + len(name):
            params = []
            i = 1
            depth = 0
            while i < len(toks):
                t = toks[i]
                if t.text == "(":
                    depth += 1
                elif t.text == ")":
                    depth -= 1
                    if depth == 0:
                        body_start = i + 1
                        break
                elif t.text == "...":
                    variadic = True
                elif t.type in (TokenType.IDENT, TokenType.KEYWORD):
                    params.append(t.text)
                i += 1
            else:
                raise ParseError("unterminated macro parameter list", tok.file, tok.line, tok.col)
        self.macros[name] = Macro(name, params, list(toks[body_start:]), variadic)

    # -- macro expansion ----------------------------------------------------
    def expand(self, tokens: list[Token], banned: frozenset[str] = frozenset()) -> list[Token]:
        """Expand macros in a token run, with self-reference protection."""
        out: list[Token] = []
        i = 0
        n = len(tokens)
        while i < n:
            t = tokens[i]
            if t.type in (TokenType.IDENT, TokenType.KEYWORD) and t.text in self.macros and t.text not in banned:
                macro = self.macros[t.text]
                if macro.params is None:
                    expanded = [Token(b.type, b.text, t.file, t.line, t.col) for b in macro.body]
                    out.extend(self.expand(expanded, banned | {macro.name}))
                    i += 1
                    continue
                # function-like: require '('
                if i + 1 < n and tokens[i + 1].text == "(":
                    args, consumed = self._collect_args(tokens, i + 1, t)
                    sub = self._substitute(macro, args, t)
                    out.extend(self.expand(sub, banned | {macro.name}))
                    i += consumed + 1
                    continue
            out.append(t)
            i += 1
        return out

    def _collect_args(self, tokens: list[Token], open_idx: int, use: Token) -> tuple[list[list[Token]], int]:
        """Collect macro-call arguments; returns (args, tokens consumed incl. parens)."""
        args: list[list[Token]] = [[]]
        depth = 0
        i = open_idx
        while i < len(tokens):
            t = tokens[i]
            if t.text == "(":
                depth += 1
                if depth > 1:
                    args[-1].append(t)
            elif t.text == ")":
                depth -= 1
                if depth == 0:
                    if args == [[]]:
                        args = []
                    return args, i - open_idx + 1
                args[-1].append(t)
            elif t.text == "," and depth == 1:
                args.append([])
            else:
                args[-1].append(t)
            i += 1
        raise ParseError("unterminated macro call", use.file, use.line, use.col)

    def _substitute(self, macro: Macro, args: list[list[Token]], use: Token) -> list[Token]:
        if not macro.variadic and len(args) != len(macro.params or []):
            if not (len(macro.params or []) == 0 and args == []):
                raise ParseError(
                    f"macro {macro.name} expects {len(macro.params or [])} args, got {len(args)}",
                    use.file,
                    use.line,
                    use.col,
                )
        table = {}
        for idx, p in enumerate(macro.params or []):
            table[p] = args[idx] if idx < len(args) else []
        if macro.variadic:
            extra = args[len(macro.params or []) :]
            va: list[Token] = []
            for k, a in enumerate(extra):
                if k:
                    va.append(Token(TokenType.PUNCT, ",", use.file, use.line, use.col))
                va.extend(a)
            table["__VA_ARGS__"] = va
        out: list[Token] = []
        for b in macro.body:
            if b.type in (TokenType.IDENT, TokenType.KEYWORD) and b.text in table:
                out.extend(
                    Token(a.type, a.text, use.file, use.line, use.col) for a in table[b.text]
                )
            else:
                out.append(Token(b.type, b.text, use.file, use.line, use.col))
        return out

    # -- #if expression evaluation -------------------------------------------
    def _eval_expr(self, tok: DirectiveToken) -> int:
        toks = tok.tokens()
        # resolve defined(X) / defined X before macro expansion
        resolved: list[Token] = []
        i = 0
        while i < len(toks):
            t = toks[i]
            if t.type is TokenType.IDENT and t.text == "defined":
                if i + 1 < len(toks) and toks[i + 1].text == "(":
                    sym = toks[i + 2].text if i + 2 < len(toks) else ""
                    i += 4  # defined ( X )
                else:
                    sym = toks[i + 1].text if i + 1 < len(toks) else ""
                    i += 2
                val = "1" if sym in self.macros else "0"
                resolved.append(Token(TokenType.INT, val, t.file, t.line, t.col))
                continue
            resolved.append(t)
            i += 1
        expanded = self.expand(resolved)
        # remaining identifiers evaluate to 0 (C semantics)
        ev = _CondEval(expanded, tok)
        return ev.parse()


class _CondEval:
    """Recursive-descent evaluator for #if expressions.

    The whole line must be one expression: a token left over (``#if 1 2``,
    or the ``?`` of a conditional, which no caller uses) is an error, and
    so are division by zero and a negative shift count in an operand that
    is evaluated. Integer literals read as C reads them (``010`` is 8).
    """

    _BINOPS = [
        ("||",),
        ("&&",),
        ("|",),
        ("^",),
        ("&",),
        ("==", "!="),
        ("<", "<=", ">", ">="),
        ("<<", ">>"),
        ("+", "-"),
        ("*", "/", "%"),
    ]

    def __init__(self, tokens: list[Token], origin: Token):
        self.toks = tokens
        self.i = 0
        self.origin = origin
        self.live = True  # False inside an operand whose value is not used

    def parse(self) -> int:
        v = self._level(0)
        extra = self._peek()
        if extra is not None:
            self._fail(f"unexpected {extra.text!r} in #if expression", extra)
        return v

    def _fail(self, message: str, at: Optional[Token] = None) -> NoReturn:
        raise ParseError(message, self.origin.file, self.origin.line, at.col if at else 0)

    def _peek(self) -> Optional[Token]:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def _level(self, lvl: int) -> int:
        if lvl >= len(self._BINOPS):
            return self._unary()
        v = self._level(lvl + 1)
        ops = self._BINOPS[lvl]
        while (t := self._peek()) is not None and t.text in ops:
            self.i += 1
            live = self.live
            # as in C, the right operand of a decided && or || is not evaluated
            self.live = live and not ((t.text == "&&" and not v) or (t.text == "||" and v))
            rhs = self._level(lvl + 1)
            self.live = live
            try:
                v = self._apply(t.text, v, rhs)
            except (ZeroDivisionError, ValueError) as e:  # x / 0, x << -1
                if live:
                    self._fail(f"{e} in #if", t)
                v = 0
        return v

    @staticmethod
    def _apply(op: str, a: int, b: int) -> int:
        if op == "||":
            return 1 if (a or b) else 0
        if op == "&&":
            return 1 if (a and b) else 0
        if op == "|":
            return a | b
        if op == "^":
            return a ^ b
        if op == "&":
            return a & b
        if op == "==":
            return int(a == b)
        if op == "!=":
            return int(a != b)
        if op == "<":
            return int(a < b)
        if op == "<=":
            return int(a <= b)
        if op == ">":
            return int(a > b)
        if op == ">=":
            return int(a >= b)
        if op == "<<":
            return a << b
        if op == ">>":
            return a >> b
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            return a // b
        if op == "%":
            return a % b
        raise AssertionError(op)

    def _unary(self) -> int:
        t = self._peek()
        if t is None:
            self._fail("bad #if expression")
        if t.text == "!":
            self.i += 1
            return int(not self._unary())
        if t.text == "-":
            self.i += 1
            return -self._unary()
        if t.text == "+":
            self.i += 1
            return self._unary()
        if t.text == "~":
            self.i += 1
            return ~self._unary()
        if t.text == "(":
            self.i += 1
            v = self._level(0)
            nxt = self._peek()
            if nxt is None or nxt.text != ")":
                self._fail("missing ')' in #if")
            self.i += 1
            return v
        if t.type is TokenType.INT:
            self.i += 1
            txt = t.text.rstrip("uUlL")
            base = 16 if txt[:2].lower() == "0x" else 8 if txt.startswith("0") else 10
            try:
                return int(txt, base)
            except ValueError:
                self._fail(f"invalid integer {t.text!r} in #if", t)
        if t.type in (TokenType.IDENT, TokenType.KEYWORD):
            self.i += 1
            if t.text == "true":
                return 1
            return 0
        self._fail(f"unexpected {t.text!r} in #if expression", t)
