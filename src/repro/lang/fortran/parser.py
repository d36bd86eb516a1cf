"""MiniFortran statement-oriented recursive-descent parser.

Parses the significant token stream line by line; block constructs
(``program``/``do``/``if``/``contains``) recurse until their matching
``end``. A post-pass resolves the call-vs-array-index ambiguity using the
declaration table, and attaches ``!$omp``/``!$acc`` directives to the
following statement (consuming optional ``!$omp end …`` closers).

With ``recover=True`` the parser practices panic-mode recovery: a
statement that fails to parse is reported through :mod:`repro.diag`,
replaced by an :class:`FtError` placeholder, and the parser resynchronises
at the next statement boundary (newline). Unterminated block constructs
(``do``/``if``/program units missing their ``end``) keep their partial
bodies and emit ``parse/missing-end`` diagnostics, so damaged files still
produce TED-comparable trees.
"""

from __future__ import annotations

from typing import Optional

from repro.lang.fortran.astnodes import (
    FtAllocate,
    FtAssign,
    FtBinOp,
    FtCallOrIndex,
    FtCallStmt,
    FtDecl,
    FtDeclAttr,
    FtDirective,
    FtDo,
    FtDoConcurrent,
    FtError,
    FtExitCycle,
    FtExpr,
    FtFile,
    FtIdent,
    FtIf,
    FtImplicitNone,
    FtLiteral,
    FtPrint,
    FtRange,
    FtReturn,
    FtStmt,
    FtStop,
    FtUnit,
    FtUnOp,
    FtUse,
    FtWhile,
)
from repro import diag
from repro.lang.fortran.lexer import FtToken, FtTokenType, lex_fortran, significant
from repro.trees.node import SourceSpan
from repro.util.errors import ParseError

_TYPE_WORDS = frozenset({"integer", "real", "logical", "character", "type"})

#: Fortran intrinsics — never array names.
INTRINSICS = frozenset(
    """
    dot_product sum maxval minval abs mod sqrt size epsilon real int max min
    exp log sin cos huge tiny merge transfer allocated present matmul
    """.split()
)


class FortranParser:
    def __init__(self, tokens: list[FtToken], path: str, recover: bool = False):
        self.toks = significant(tokens)
        self.i = 0
        self.path = path
        self.array_names: set[str] = set()
        self.recover = recover
        self.error_count = 0

    # -- token helpers -----------------------------------------------------
    def _peek(self, off: int = 0) -> Optional[FtToken]:
        k = self.i + off
        return self.toks[k] if k < len(self.toks) else None

    def _at(self, text: str, off: int = 0) -> bool:
        t = self._peek(off)
        return t is not None and t.text == text

    def _at_nl(self) -> bool:
        t = self._peek()
        return t is None or t.type in (FtTokenType.NEWLINE, FtTokenType.EOF)

    def _advance(self) -> FtToken:
        t = self._peek()
        if t is None:
            raise ParseError("unexpected end of input", self.path, 0, 0)
        self.i += 1
        return t

    def _expect(self, text: str) -> FtToken:
        t = self._peek()
        if t is None or t.text != text:
            got = t.text if t else "<eof>"
            f, ln, c = (t.file, t.line, t.col) if t else (self.path, 0, 0)
            raise ParseError(f"expected {text!r}, got {got!r}", f, ln, c)
        self.i += 1
        return t

    def _accept(self, text: str) -> bool:
        if self._at(text):
            self.i += 1
            return True
        return False

    def _skip_newlines(self) -> None:
        while (t := self._peek()) is not None and t.type is FtTokenType.NEWLINE:
            self.i += 1

    def _end_of_stmt(self) -> None:
        t = self._peek()
        if t is not None and t.type is FtTokenType.NEWLINE:
            self.i += 1
        elif t is not None and t.type is not FtTokenType.EOF:
            raise ParseError(f"trailing tokens: {t.text!r}", t.file, t.line, t.col)

    # -- recovery helpers ---------------------------------------------------
    def _at_eof(self) -> bool:
        t = self._peek()
        return t is None or t.type is FtTokenType.EOF

    def _report(self, code: str, e: ParseError) -> None:
        self.error_count += 1
        diag.emit_exception(code, e)

    def _sync_line(self, start_i: int) -> None:
        """Panic-mode resync: skip to just past the next statement boundary.

        Guarantees progress even when the failed parse consumed nothing.
        """
        if self.i <= start_i:
            self.i = start_i + 1
        while (t := self._peek()) is not None and t.type not in (
            FtTokenType.NEWLINE,
            FtTokenType.EOF,
        ):
            self.i += 1
        if (t := self._peek()) is not None and t.type is FtTokenType.NEWLINE:
            self.i += 1

    def _sync_unit(self, start_i: int) -> None:
        """Skip whole lines until one starts with a unit keyword (or EOF)."""
        if self.i <= start_i:
            self.i = start_i + 1
        heads = ("program", "module", "subroutine", "function")
        while not self._at_eof():
            self._sync_line(self.i)
            t = self._peek()
            if t is None or t.type is FtTokenType.EOF or t.text in heads:
                return

    def _missing_end(self, what: str) -> bool:
        """In recover mode at EOF, report the missing block closer and let
        the partial body stand. Returns True when the closer is waived."""
        if not (self.recover and self._at_eof()):
            return False
        prev = self.toks[self.i - 1] if 0 < self.i <= len(self.toks) else None
        f, ln, c = (prev.file, prev.line, prev.col) if prev else (self.path, 0, 0)
        self.error_count += 1
        diag.error(
            "parse/missing-end",
            f"unexpected end of input: missing 'end' closing {what}",
            f, ln, c,
        )
        return True

    def _close_block(self, kind: str, what: str, combined: Optional[str] = None) -> None:
        """Consume the ``end <kind>`` / ``<endkind>`` closing a block.

        In recover mode a mismatched closer (e.g. ``end program`` reached
        while still inside a ``do``) degrades to a ``parse/missing-end``
        diagnostic; the closer tokens are left unconsumed for the
        enclosing construct, so the partial body stands."""
        if self._missing_end(what):
            return
        start_i = self.i
        try:
            if combined is not None and self._accept(combined):
                pass
            else:
                self._expect("end")
                self._accept(kind)
            self._end_of_stmt()
        except ParseError:
            if not self.recover:
                raise
            self.i = start_i
            self.error_count += 1
            t = self._peek()
            f, ln, c = (t.file, t.line, t.col) if t else (self.path, 0, 0)
            diag.error("parse/missing-end", f"missing 'end {kind}' closing {what}", f, ln, c)

    # -- entry ----------------------------------------------------------------
    def parse_file(self) -> FtFile:
        f = FtFile(path=self.path)
        self._skip_newlines()
        while (t := self._peek()) is not None and t.type is not FtTokenType.EOF:
            start_i = self.i
            try:
                f.units.append(self.parse_unit())
            except ParseError as e:
                if not self.recover:
                    raise
                self._report("parse/bad-unit", e)
                span = SourceSpan(t.file, t.line)
                f.units.append(
                    FtUnit(
                        kind="program",
                        name="<error>",
                        body=[FtError(message=str(e), span=span)],
                        span=span,
                    )
                )
                self._sync_unit(start_i)
            self._skip_newlines()
        for u in f.units:
            _attach_directives(u.body)
            _resolve_indexing(u, self.array_names)
        return f

    def parse_unit(self) -> FtUnit:
        t = self._peek()
        if t is None:
            raise ParseError("unexpected end of input", self.path, 0, 0)
        if t.text in ("program", "module", "subroutine", "function"):
            return self._parse_unit_block(t.text)
        raise ParseError(f"expected program unit, got {t.text!r}", t.file, t.line, t.col)

    def _parse_unit_block(self, kind: str) -> FtUnit:
        start = self._expect(kind)
        name = self._advance().text
        unit = FtUnit(kind=kind, name=name, span=SourceSpan(start.file, start.line))
        if kind in ("subroutine", "function") and self._accept("("):
            while not self._at(")"):
                unit.params.append(self._advance().text)
                self._accept(",")
            self._expect(")")
            if kind == "function" and self._accept("result"):
                self._expect("(")
                unit.result = self._advance().text
                self._expect(")")
        self._end_of_stmt()
        while True:
            unit.body.extend(self._parse_block(until={"end"}, unit=unit))
            if self._missing_end(f"{kind} {name!r}"):
                break
            # 'end [kind [name]]'
            self._expect("end")
            nxt = self._peek()
            if (
                self.recover
                and nxt is not None
                and nxt.type not in (FtTokenType.NEWLINE, FtTokenType.EOF)
                and nxt.text != kind
            ):
                # Stray 'end do'/'end if' left behind by a failed block
                # header: skip the line and keep parsing the unit body.
                self.error_count += 1
                diag.error(
                    "parse/stray-end",
                    f"unmatched 'end {nxt.text}'",
                    nxt.file, nxt.line, nxt.col,
                )
                self._sync_line(self.i)
                continue
            if self._at(kind):
                self._advance()
                if not self._at_nl():
                    self._advance()  # trailing name
            self._end_of_stmt()
            break
        if unit.span is not None:
            prev = self._peek(-1) or start
            unit.span = SourceSpan(start.file, start.line, prev.line)
        return unit

    # -- blocks ----------------------------------------------------------------
    def _parse_block(self, until: set[str], unit: Optional[FtUnit] = None) -> list[FtStmt]:
        stmts: list[FtStmt] = []
        while True:
            self._skip_newlines()
            t = self._peek()
            if t is None or t.type is FtTokenType.EOF:
                break
            if t.text in until:
                # 'end' followed by 'do'/'if' inside nested blocks is handled
                # by callers; at this level any 'until' word terminates.
                break
            if t.text in ("else", "elseif", "contains"):
                if t.text == "contains" and unit is not None:
                    self._advance()
                    self._end_of_stmt()
                    self._skip_newlines()
                    while self._peek() is not None and self._peek().text in (
                        "subroutine",
                        "function",
                    ):
                        sub_i = self.i
                        try:
                            unit.contains.append(self.parse_unit())
                        except ParseError as e:
                            if not self.recover:
                                raise
                            self._report("parse/bad-unit", e)
                            unit.contains.append(
                                FtUnit(
                                    kind="subroutine",
                                    name="<error>",
                                    body=[FtError(message=str(e))],
                                )
                            )
                            self._sync_unit(sub_i)
                        self._skip_newlines()
                    continue
                break
            start_i = self.i
            try:
                stmts.append(self.parse_stmt())
            except ParseError as e:
                if not self.recover:
                    raise
                self._report("parse/bad-stmt", e)
                stmts.append(FtError(message=str(e), span=SourceSpan(t.file, t.line)))
                self._sync_line(start_i)
        return stmts

    # -- statements ----------------------------------------------------------------
    def parse_stmt(self) -> FtStmt:
        t = self._peek()
        if t is None or t.type is FtTokenType.EOF:
            raise ParseError("unexpected end of input in statement", self.path, 0, 0)
        span = SourceSpan(t.file, t.line)
        if t.type is FtTokenType.DIRECTIVE:
            return self._parse_directive()
        if t.text in _TYPE_WORDS and self._is_decl():
            return self._parse_decl()
        if t.text == "implicit":
            self._advance()
            self._expect("none")
            self._end_of_stmt()
            return FtImplicitNone(span=span)
        if t.text == "use":
            self._advance()
            mod = self._advance().text
            only: list[str] = []
            if self._accept(","):
                if self._accept("only"):
                    self._expect(":")
                    while not self._at_nl():
                        only.append(self._advance().text)
                        self._accept(",")
            self._end_of_stmt()
            return FtUse(module=mod, only=only, span=span)
        if t.text in ("allocate", "deallocate"):
            return self._parse_allocate(t.text == "deallocate")
        if t.text == "do":
            return self._parse_do()
        if t.text == "if":
            return self._parse_if()
        if t.text == "call":
            self._advance()
            name = self._advance().text
            args: list[FtExpr] = []
            if self._accept("("):
                while not self._at(")"):
                    args.append(self.parse_expr())
                    self._accept(",")
                self._expect(")")
            self._end_of_stmt()
            return FtCallStmt(name=name, args=args, span=span)
        if t.text in ("print", "write"):
            self._advance()
            if t.text == "write":
                self._expect("(")
                while not self._at(")"):
                    self._advance()
                self._expect(")")
            else:
                self._expect("*")
                if not self._accept(","):
                    self._end_of_stmt()
                    return FtPrint(span=span)
            items: list[FtExpr] = []
            while not self._at_nl():
                items.append(self.parse_expr())
                self._accept(",")
            self._end_of_stmt()
            return FtPrint(items=items, span=span)
        if t.text == "return":
            self._advance()
            self._end_of_stmt()
            return FtReturn(span=span)
        if t.text == "stop":
            self._advance()
            code = None if self._at_nl() else self.parse_expr()
            self._end_of_stmt()
            return FtStop(code=code, span=span)
        if t.text in ("exit", "cycle"):
            self._advance()
            self._end_of_stmt()
            return FtExitCycle(kind=t.text, span=span)
        # assignment: lhs = rhs
        lhs = self.parse_expr()
        self._expect("=")
        rhs = self.parse_expr()
        self._end_of_stmt()
        return FtAssign(lhs=lhs, rhs=rhs, span=span)

    def _is_decl(self) -> bool:
        # A type word starts a declaration iff the statement contains '::'
        # before the newline, or the classic 'real x' form follows.
        j = self.i
        while j < len(self.toks) and self.toks[j].type is not FtTokenType.NEWLINE:
            if self.toks[j].text == "::":
                return True
            j += 1
        # 'real(8) x' without '::' is not used by the corpus; also 'real(x)'
        # alone is a cast call.
        return False

    def _parse_decl(self) -> FtDecl:
        t = self._advance()
        decl = FtDecl(base_type=t.text, span=SourceSpan(t.file, t.line))
        if self._accept("("):
            # kind spec: (8) or (kind=8) or (len=...)
            spec = ""
            depth = 1
            while depth:
                tk = self._advance()
                if tk.text == "(":
                    depth += 1
                elif tk.text == ")":
                    depth -= 1
                    if not depth:
                        break
                spec += tk.text
            decl.kind = spec
        while self._accept(","):
            a = self._advance()
            attr = FtDeclAttr(name=a.text, span=SourceSpan(a.file, a.line))
            if self._accept("("):
                depth = 1
                cur = ""
                while depth:
                    tk = self._advance()
                    if tk.text == "(":
                        depth += 1
                        cur += tk.text
                    elif tk.text == ")":
                        depth -= 1
                        if depth:
                            cur += tk.text
                    elif tk.text == "," and depth == 1:
                        attr.args.append(cur)
                        cur = ""
                    else:
                        cur += tk.text
                if cur:
                    attr.args.append(cur)
            decl.attrs.append(attr)
        self._expect("::")
        while not self._at_nl():
            name = self._advance().text
            dims: list[FtExpr] = []
            if self._accept("("):
                while not self._at(")"):
                    dims.append(self.parse_expr())
                    self._accept(",")
                self._expect(")")
            init = None
            if self._accept("="):
                init = self.parse_expr()
            decl.entities.append((name, dims, init))
            self._accept(",")
        self._end_of_stmt()
        has_dim_attr = any(a.name in ("dimension", "allocatable") for a in decl.attrs)
        for name, dims, _init in decl.entities:
            if dims or has_dim_attr:
                self.array_names.add(name.lower())
        return decl

    def _parse_allocate(self, dealloc: bool) -> FtAllocate:
        t = self._advance()
        self._expect("(")
        items: list[FtCallOrIndex] = []
        while not self._at(")"):
            name = self._advance().text
            args: list[FtExpr] = []
            if self._accept("("):
                while not self._at(")"):
                    args.append(self.parse_expr())
                    self._accept(",")
                self._expect(")")
            items.append(FtCallOrIndex(name=name, args=args, is_index=True, span=SourceSpan(t.file, t.line)))
            self._accept(",")
        self._expect(")")
        self._end_of_stmt()
        return FtAllocate(items=items, dealloc=dealloc, span=SourceSpan(t.file, t.line))

    def _parse_do(self) -> FtStmt:
        t = self._expect("do")
        span = SourceSpan(t.file, t.line)
        if self._accept("while"):
            self._expect("(")
            cond = self.parse_expr()
            self._expect(")")
            self._end_of_stmt()
            body = self._parse_block(until={"end"})
            self._close_block("do", "'do while' loop")
            return FtWhile(cond=cond, body=body, span=span)
        if self._accept("concurrent"):
            self._expect("(")
            var = self._advance().text
            self._expect("=")
            lo = self.parse_expr(no_range=True)
            self._expect(":")
            hi = self.parse_expr(no_range=True)
            self._expect(")")
            self._end_of_stmt()
            body = self._parse_block(until={"end"})
            self._close_block("do", "'do concurrent' loop")
            node = FtDoConcurrent(var=var, lo=lo, hi=hi, body=body, span=span)
            return node
        var = self._advance().text
        self._expect("=")
        lo = self.parse_expr()
        self._expect(",")
        hi = self.parse_expr()
        step = None
        if self._accept(","):
            step = self.parse_expr()
        self._end_of_stmt()
        body = self._parse_block(until={"end", "enddo"})
        self._close_block("do", "'do' loop", combined="enddo")
        return FtDo(var=var, lo=lo, hi=hi, step=step, body=body, span=span)

    def _parse_if(self) -> FtIf:
        t = self._expect("if")
        span = SourceSpan(t.file, t.line)
        self._expect("(")
        cond = self.parse_expr()
        self._expect(")")
        if not self._accept("then"):
            # single-statement if
            inner = self.parse_stmt()
            return FtIf(cond=cond, then=[inner], span=span)
        self._end_of_stmt()
        node = FtIf(cond=cond, span=span)
        node.then = self._parse_block(until={"end", "endif"})
        while True:
            if self._at("elseif") or (self._at("else") and self._at("if", 1)):
                if self._accept("elseif"):
                    pass
                else:
                    self._advance()
                    self._advance()
                self._expect("(")
                ec = self.parse_expr()
                self._expect(")")
                self._accept("then")
                self._end_of_stmt()
                eb = self._parse_block(until={"end", "endif"})
                node.elifs.append((ec, eb))
                continue
            if self._accept("else"):
                self._end_of_stmt()
                node.other = self._parse_block(until={"end", "endif"})
            break
        self._close_block("if", "'if' block", combined="endif")
        return node

    # -- directives -------------------------------------------------------------
    def _parse_directive(self) -> FtDirective:
        tok = self._advance()
        self._end_of_stmt()
        text = tok.text
        low = text.lower()
        family = "omp" if low.startswith("!$omp") else "acc"
        rest = text[5:].strip()
        node = FtDirective(family=family, span=SourceSpan(tok.file, tok.line))
        # split into directive words then clauses
        i = 0
        words: list[str] = []
        while i < len(rest):
            if rest[i] in " \t":
                i += 1
                continue
            if rest[i] == "(":
                break
            j = i
            while j < len(rest) and rest[j] not in " \t(":
                j += 1
            words.append(rest[i:j].lower())
            # a word directly followed by '(' starts the clause region
            if j < len(rest) and rest[j] == "(":
                words.pop()
                break
            i = j
        directive_words = {
            "end", "parallel", "do", "simd", "target", "teams", "distribute",
            "task", "taskloop", "barrier", "taskwait", "single", "master",
            "critical", "sections", "section", "atomic", "workshare",
            "kernels", "loop", "data", "enter", "exit", "update", "declare",
            "routine", "serial", "concurrent", "wait",
        }
        clause_start = len(words)
        for k, w in enumerate(words):
            if w not in directive_words:
                clause_start = k
                break
        node.directives = [w for w in words[:clause_start]]
        if words and not node.directives:
            # First word is not a known directive — likely a misspelled
            # sentinel body like '!$omp paralel do'. Keep it as clause text
            # but flag it so the damage is visible.
            diag.warning(
                "parse/unknown-directive",
                f"unrecognised {family} directive word {words[0]!r}",
                tok.file, tok.line, tok.col,
            )
        if node.directives and node.directives[0] == "end":
            node.is_end = True
            node.directives = node.directives[1:]
        # clause region: parse 'name(arg,...)' and bare names
        clause_text = rest
        for w in words[:clause_start]:
            idx = clause_text.lower().find(w)
            if idx != -1:
                clause_text = clause_text[idx + len(w):]
        clause_text = clause_text.strip()
        k = 0
        while k < len(clause_text):
            if clause_text[k] in " \t,":
                k += 1
                continue
            j = k
            while j < len(clause_text) and clause_text[j] not in " \t(,":
                j += 1
            cname = clause_text[k:j].lower()
            args: list[str] = []
            if j < len(clause_text) and clause_text[j] == "(":
                depth = 1
                j += 1
                cur = ""
                while j < len(clause_text) and depth:
                    c = clause_text[j]
                    if c == "(":
                        depth += 1
                        cur += c
                    elif c == ")":
                        depth -= 1
                        if depth:
                            cur += c
                    elif c == "," and depth == 1:
                        args.append(cur.strip())
                        cur = ""
                    else:
                        cur += c
                    j += 1
                if cur.strip():
                    args.append(cur.strip())
            if cname:
                node.clauses.append((cname, args))
            k = j
        return node

    # -- expressions --------------------------------------------------------------
    _LEVELS = [
        (".or.", ".neqv.", ".eqv."),
        (".and.",),
        (".not.",),  # handled in unary
        ("==", "/=", "<", "<=", ">", ">=", ".eq.", ".ne.", ".lt.", ".le.", ".gt.", ".ge."),
        ("+", "-"),
        ("*", "/"),
        ("**",),
    ]

    def parse_expr(self, no_range: bool = False) -> FtExpr:
        e = self._parse_level(0)
        if not no_range and self._at(":"):
            # top-level range inside parens: lo:hi[:step]
            self._advance()
            hi = None if self._at(")") or self._at(",") else self._parse_level(0)
            step = None
            if self._accept(":"):
                step = self._parse_level(0)
            return FtRange(lo=e, hi=hi, step=step, span=e.span)
        return e

    def _parse_level(self, lvl: int) -> FtExpr:
        if lvl >= len(self._LEVELS):
            return self._parse_unary()
        if self._LEVELS[lvl] == (".not.",):
            return self._parse_level(lvl + 1)
        lhs = self._parse_level(lvl + 1)
        while (t := self._peek()) is not None and t.text in self._LEVELS[lvl]:
            self._advance()
            rhs = self._parse_level(lvl + 1)
            lhs = FtBinOp(op=t.text, lhs=lhs, rhs=rhs, span=lhs.span)
        return lhs

    def _parse_unary(self) -> FtExpr:
        t = self._peek()
        if t is None:
            raise ParseError("unexpected end of expression", self.path, 0, 0)
        if t.text in ("-", "+", ".not."):
            self._advance()
            return FtUnOp(op=t.text, operand=self._parse_unary(), span=SourceSpan(t.file, t.line))
        return self._parse_primary()

    def _parse_primary(self) -> FtExpr:
        t = self._peek()
        if t is None:
            raise ParseError("unexpected end of expression", self.path, 0, 0)
        span = SourceSpan(t.file, t.line)
        if t.type is FtTokenType.INT:
            self._advance()
            return FtLiteral(kind="int", value=t.text, span=span)
        if t.type is FtTokenType.REAL:
            self._advance()
            return FtLiteral(kind="real", value=t.text, span=span)
        if t.type is FtTokenType.STRING:
            self._advance()
            return FtLiteral(kind="string", value=t.text, span=span)
        if t.type is FtTokenType.LOGICAL:
            self._advance()
            return FtLiteral(kind="logical", value=t.text, span=span)
        if t.text == "(":
            self._advance()
            e = self.parse_expr()
            self._expect(")")
            return e
        if t.text == ":":
            # bare section ':' inside an index list
            self._advance()
            hi = None
            if not (self._at(")") or self._at(",")):
                hi = self._parse_level(0)
            return FtRange(lo=None, hi=hi, span=span)
        if t.type in (FtTokenType.IDENT, FtTokenType.KEYWORD):
            self._advance()
            name = t.text
            if self._at("("):
                self._advance()
                args: list[FtExpr] = []
                while not self._at(")"):
                    args.append(self.parse_expr())
                    self._accept(",")
                self._expect(")")
                return FtCallOrIndex(name=name, args=args, span=span)
            return FtIdent(name=name, span=span)
        raise ParseError(f"unexpected token {t.text!r} in expression", t.file, t.line, t.col)


# ---------------------------------------------------------------------------
# post passes
# ---------------------------------------------------------------------------


def _attach_directives(stmts: list[FtStmt]) -> None:
    """Attach each non-end directive to the following statement; drop ends."""
    i = 0
    while i < len(stmts):
        s = stmts[i]
        if isinstance(s, FtDirective) and not s.is_end and not s.body:
            standalone = set(s.directives) & {"barrier", "taskwait", "declare", "routine", "update", "wait"}
            if not standalone and i + 1 < len(stmts):
                nxt = stmts[i + 1]
                if not isinstance(nxt, FtDirective):
                    s.body = [nxt]
                    del stmts[i + 1]
        if isinstance(s, FtDirective) and s.is_end:
            del stmts[i]
            continue
        for attr in ("body", "then", "other"):
            sub = getattr(s, attr, None)
            if isinstance(sub, list):
                _attach_directives(sub)
        if isinstance(s, FtIf):
            for _, blk in s.elifs:
                _attach_directives(blk)
        i += 1


def _resolve_indexing(unit: FtUnit, array_names: set[str]) -> None:
    """Mark FtCallOrIndex nodes as array indexing vs function calls."""
    for st in unit.decls + unit.body:
        _resolve_stmt(st, array_names)
    for sub in unit.contains:
        _resolve_indexing(sub, array_names)


def _resolve_expr(e, array_names: set[str]) -> None:
    if isinstance(e, FtCallOrIndex):
        if e.is_index is None:
            low = e.name.lower()
            e.is_index = low in array_names and low not in INTRINSICS
        for a in e.args:
            _resolve_expr(a, array_names)
    elif isinstance(e, FtBinOp):
        _resolve_expr(e.lhs, array_names)
        _resolve_expr(e.rhs, array_names)
    elif isinstance(e, FtUnOp):
        _resolve_expr(e.operand, array_names)
    elif isinstance(e, FtRange):
        for x in (e.lo, e.hi, e.step):
            if x is not None:
                _resolve_expr(x, array_names)


def _resolve_stmt(s, array_names: set[str]) -> None:
    for attr in ("lhs", "rhs", "cond", "lo", "hi", "step", "code"):
        v = getattr(s, attr, None)
        if isinstance(v, FtExpr):
            _resolve_expr(v, array_names)
    for attr in ("args", "items"):
        v = getattr(s, attr, None)
        if isinstance(v, list):
            for x in v:
                if isinstance(x, FtExpr):
                    _resolve_expr(x, array_names)
    for attr in ("body", "then", "other"):
        v = getattr(s, attr, None)
        if isinstance(v, list):
            for x in v:
                _resolve_stmt(x, array_names)
    if isinstance(s, FtIf):
        for c, blk in s.elifs:
            _resolve_expr(c, array_names)
            for x in blk:
                _resolve_stmt(x, array_names)


def parse_fortran(text: str, path: str = "<memory>", recover: bool = False) -> FtFile:
    """Lex + parse free-form Fortran source.

    ``recover=True`` enables tolerant lexing plus panic-mode parser
    recovery: damaged statements become :class:`FtError` placeholders and
    every problem is reported through :mod:`repro.diag`.
    """
    toks = lex_fortran(text, path, tolerant=recover)
    return FortranParser(toks, path, recover=recover).parse_file()
