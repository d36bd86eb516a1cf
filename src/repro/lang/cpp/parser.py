"""MiniC++ recursive-descent parser.

Consumes the significant token stream (post-preprocessor, with retained
pragma directives interleaved) and produces a :class:`TranslationUnit`.
A pragma is read from the body tokens the lexer split off its directive.

Ambiguity handling follows the pragmatic conventions real frontends use,
scaled to the MiniC++ subset:

* *declaration vs expression statements* — tentative parse with
  backtracking: a statement parses as a declaration only if a type parses
  cleanly and is followed by a plain identifier and one of ``= ( ; , [``.
* *template argument lists vs less-than* — tentative parse of the argument
  list; on failure the ``<`` is an operator. Nested ``>>`` closers are
  split into two ``>`` tokens on demand.
* *CUDA launches* — ``<<<`` is unambiguous and parsed eagerly.

With ``recover=True`` the parser runs in panic-mode error-recovery:
a :class:`ParseError` inside a declaration or statement is recorded as a
diagnostic, an :class:`ErrorDecl`/:class:`ErrorStmt` placeholder is
appended, and parsing resynchronises on ``;`` / ``}`` / statement
keywords (tracking bracket depth, always making forward progress), so a
partial tree is produced for any input. The default remains fail-fast.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.lang.cpp.astnodes import (
    AssignExpr,
    BinaryExpr,
    BreakStmt,
    CallExpr,
    CastExpr,
    ClassDecl,
    CompoundStmt,
    CondExpr,
    ContinueStmt,
    Decl,
    DeclStmt,
    DeleteExpr,
    DoStmt,
    ErrorDecl,
    ErrorStmt,
    Expr,
    ExprStmt,
    FieldDecl,
    ForStmt,
    FunctionDecl,
    IdentExpr,
    IfStmt,
    InitListExpr,
    KernelLaunchExpr,
    LambdaExpr,
    LiteralExpr,
    MemberExpr,
    NamespaceDecl,
    NewExpr,
    ParamDecl,
    PragmaClause,
    PragmaDecl,
    PragmaStmt,
    ReturnStmt,
    SizeofExpr,
    Stmt,
    SubscriptExpr,
    TemplateParam,
    ThisExpr,
    TranslationUnit,
    TypedefDecl,
    TypeRef,
    UnaryExpr,
    UsingDecl,
    VarDecl,
    WhileStmt,
)
from repro import diag
from repro.lang.cpp.lexer import DirectiveToken, Token, TokenType
from repro.lang.source import VirtualFS
from repro.lang.cpp.preprocessor import preprocess
from repro.trees.node import SourceSpan
from repro.util.errors import ParseError

_TYPE_KEYWORDS = frozenset(
    "void bool char short int long float double auto unsigned signed".split()
)
_FN_ATTRS = frozenset(
    "__global__ __device__ __host__ inline static constexpr extern".split()
)

#: OpenMP/OpenACC directive words (vs clause words) for pragma parsing.
_DIRECTIVE_WORDS = frozenset(
    """
    parallel for simd target teams distribute task taskloop taskwait barrier
    sections section single master critical atomic flush declare end data
    enter exit update kernels loop routine serial wait
    """.split()
)

#: Directives that never take an attached structured block.
_STANDALONE = frozenset(
    "barrier taskwait flush declare routine update enter exit wait".split()
)


#: Keywords a statement-level resync can safely stop in front of.
_STMT_SYNC = frozenset("if for while do return break continue switch".split())

#: Keywords a declaration-level resync can safely stop in front of. At
#: bracket depth 0 a type keyword / linkage attribute / class head almost
#: always opens a fresh declaration, so stopping there keeps one bad decl
#: from swallowing the well-formed ones after it (found by fuzz_frontends).
_DECL_SYNC = (
    frozenset("namespace template using typedef class struct enum".split())
    | _TYPE_KEYWORDS
    | _FN_ATTRS
)


class Parser:
    def __init__(self, tokens: list[Token], path: str = "<memory>", recover: bool = False):
        # Copy: '>>' splitting mutates the list.
        self.toks = list(tokens)
        self.i = 0
        self.path = path
        self.recover = recover
        #: Number of errors recovered from (0 on a clean parse).
        self.error_count = 0

    # ------------------------------------------------------------------
    # token helpers
    # ------------------------------------------------------------------
    def _peek(self, off: int = 0) -> Optional[Token]:
        k = self.i + off
        return self.toks[k] if k < len(self.toks) else None

    def _at(self, text: str, off: int = 0) -> bool:
        t = self._peek(off)
        return t is not None and t.text == text

    def _at_type(self, tt: TokenType, off: int = 0) -> bool:
        t = self._peek(off)
        return t is not None and t.type is tt

    def _advance(self) -> Token:
        t = self._peek()
        if t is None:
            raise ParseError("unexpected end of input", self.path, 0, 0)
        self.i += 1
        return t

    def _expect(self, text: str) -> Token:
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

    def _expect_gt(self) -> None:
        """Consume a '>' closer, splitting '>>'/'>>>' when necessary."""
        t = self._peek()
        if t is None:
            raise ParseError("expected '>'", self.path, 0, 0)
        if t.text == ">":
            self.i += 1
            return
        if t.text in (">>", ">>>"):
            rest = t.text[1:]
            self.toks[self.i] = Token(TokenType.PUNCT, rest, t.file, t.line, t.col + 1)
            return
        raise ParseError(f"expected '>', got {t.text!r}", t.file, t.line, t.col)

    # ------------------------------------------------------------------
    # panic-mode error recovery
    # ------------------------------------------------------------------
    def _error_span(self, at_i: int) -> SourceSpan:
        t = self.toks[at_i] if at_i < len(self.toks) else None
        if t is None:
            return SourceSpan(self.path, 0)
        return SourceSpan(t.file, t.line)

    def _report(self, code: str, e: ParseError) -> None:
        self.error_count += 1
        diag.emit_exception(code, e)

    def _sync_decl(self, start_i: int, stop_before_brace: bool = False) -> None:
        """Resync after a failed declaration: skip to just past the next
        ``;`` or ``}`` at bracket depth 0, or stop before a token that can
        start a fresh declaration. Always advances past ``start_i``.

        ``stop_before_brace`` leaves a depth-0 ``}`` unconsumed — used
        inside namespaces, where that brace closes the enclosing scope."""
        if self.i <= start_i:
            self.i = start_i + 1
        depth = 0
        while (t := self._peek()) is not None:
            if depth == 0:
                if t.text == "}":
                    if stop_before_brace:
                        return
                    self.i += 1
                    return
                if t.text == ";":
                    self.i += 1
                    return
                if t.text in _DECL_SYNC or t.type is TokenType.DIRECTIVE:
                    return
            if t.text in ("(", "[", "{"):
                depth += 1
            elif t.text in (")", "]", "}"):
                depth = max(depth - 1, 0)
            self.i += 1

    def _sync_stmt(self, start_i: int) -> None:
        """Resync after a failed statement: skip to just past the next
        ``;`` at bracket depth 0, or stop before a ``}`` closing the
        enclosing block / a statement keyword. Always advances past
        ``start_i``."""
        if self.i <= start_i:
            self.i = start_i + 1
        depth = 0
        while (t := self._peek()) is not None:
            if depth == 0:
                if t.text == ";":
                    self.i += 1
                    return
                if t.text == "}":
                    return
                if t.text in _STMT_SYNC or t.type is TokenType.DIRECTIVE:
                    return
            if t.text in ("(", "[", "{"):
                depth += 1
            elif t.text in (")", "]", "}"):
                depth = max(depth - 1, 0)
            self.i += 1

    def _parse_decls_into(self, decls: list[Decl], stop: Optional[str]) -> None:
        """Parse declarations until ``stop`` (EOF when None), recovering
        per-declaration when ``self.recover`` is set."""
        while True:
            t = self._peek()
            if t is None:
                if stop is None:
                    return
                if self.recover:
                    diag.error(
                        "parse/unclosed-brace",
                        f"unexpected end of input: missing {stop!r}",
                        self.path,
                    )
                    return
                raise ParseError(
                    f"unexpected end of input: missing {stop!r}", self.path, 0, 0
                )
            if stop is not None and t.text == stop:
                return
            start_i = self.i
            try:
                d = self.parse_decl()
            except ParseError as e:
                if not self.recover:
                    raise
                self._report("parse/bad-decl", e)
                decls.append(ErrorDecl(message=str(e), span=self._error_span(start_i)))
                self._sync_decl(start_i, stop_before_brace=stop is not None)
                continue
            if d is not None:
                decls.append(d)

    def _expect_close(self, text: str) -> Optional[Token]:
        """Like :meth:`_expect`, but in recover mode a missing closer at
        EOF is tolerated (the diagnostic was already emitted)."""
        if self.recover and self._peek() is None:
            return None
        return self._expect(text)

    # ------------------------------------------------------------------
    # entry points
    # ------------------------------------------------------------------
    def parse_translation_unit(self) -> TranslationUnit:
        tu = TranslationUnit(path=self.path)
        self._parse_decls_into(tu.decls, None)
        return tu

    # ------------------------------------------------------------------
    # declarations
    # ------------------------------------------------------------------
    def parse_decl(self) -> Optional[Decl]:
        t = self._peek()
        if t is None:
            raise ParseError("unexpected end of input in declaration", self.path, 0, 0)
        if t.type is TokenType.DIRECTIVE:
            return self._parse_pragma_decl()
        if self._accept(";"):
            return None
        if t.text == "namespace":
            return self._parse_namespace()
        if t.text == "using":
            return self._parse_using()
        if t.text == "typedef":
            return self._parse_typedef()
        if t.text == "template":
            return self._parse_template()
        if t.text in ("class", "struct") and self._looks_like_class_def():
            return self._parse_class([])
        return self._parse_function_or_var([])

    def _looks_like_class_def(self) -> bool:
        # 'class X {' or 'class X : ... {' or 'class X;' — vs elaborated
        # type in a declaration like 'struct foo x;'
        t2 = self._peek(1)
        t3 = self._peek(2)
        if t2 is None or t2.type not in (TokenType.IDENT, TokenType.KEYWORD):
            return False
        return t3 is not None and t3.text in ("{", ":", ";", "<")

    def _parse_namespace(self) -> NamespaceDecl:
        start = self._expect("namespace")
        name = self._advance().text if not self._at("{") else ""
        ns = NamespaceDecl(name=name)
        self._expect("{")
        self._parse_decls_into(ns.decls, "}")
        self._expect_close("}")
        ns.span = SourceSpan(start.file, start.line, (self._peek(-1) or start).line)
        return ns

    def _parse_using(self) -> UsingDecl:
        start = self._expect("using")
        if self._at("namespace"):
            self._advance()
            parts = self._qualified_name()
            self._expect(";")
            return UsingDecl(
                text="namespace " + "::".join(parts),
                span=SourceSpan(start.file, start.line),
            )
        # using alias = type;
        alias = self._advance().text
        if self._accept("="):
            ty = self._parse_type()
            self._expect(";")
            return UsingDecl(
                text=f"{alias} = {ty}",
                alias=alias,
                target=ty,
                span=SourceSpan(start.file, start.line),
            )
        # using a::b::c;
        parts = [alias]
        while self._accept("::"):
            parts.append(self._advance().text)
        self._expect(";")
        return UsingDecl(text="::".join(parts), span=SourceSpan(start.file, start.line))

    def _parse_typedef(self) -> TypedefDecl:
        start = self._expect("typedef")
        ty = self._parse_type()
        if ty is None:
            raise ParseError("bad typedef", start.file, start.line, start.col)
        name = self._advance().text
        self._expect(";")
        return TypedefDecl(name=name, type=ty, span=SourceSpan(start.file, start.line))

    def _parse_template(self) -> Decl:
        start = self._expect("template")
        self._expect("<")
        tparams: list[TemplateParam] = []
        if not self._at(">"):
            while True:
                tparams.append(self._parse_template_param())
                if not self._accept(","):
                    break
        self._expect_gt()
        t = self._peek()
        if t is not None and t.text in ("class", "struct") and self._looks_like_class_def():
            cls = self._parse_class(tparams)
            cls.span = SourceSpan(start.file, start.line, cls.span.line_end if cls.span else start.line)
            return cls
        fn = self._parse_function_or_var([], tparams)
        return fn

    def _parse_template_param(self) -> TemplateParam:
        t = self._peek()
        if t is None:
            raise ParseError("unexpected end of input in template parameters", self.path, 0, 0)
        if t.text in ("typename", "class"):
            self._advance()
            name = self._advance().text if self._at_type(TokenType.IDENT) else ""
            # default argument: typename T = foo
            if self._accept("="):
                self._parse_type()
            return TemplateParam(kind="type", name=name, span=SourceSpan(t.file, t.line))
        # non-type: e.g. int D
        ty = self._parse_type()
        name = self._advance().text if self._at_type(TokenType.IDENT) else ""
        if self._accept("="):
            self.parse_expr(no_comma=True, no_gt=True)
        return TemplateParam(kind="nontype", name=name, value_type=ty, span=SourceSpan(t.file, t.line))

    def _parse_class(self, tparams: list[TemplateParam]) -> ClassDecl:
        kw = self._advance()  # class | struct
        name = self._advance().text
        cls = ClassDecl(name=name, kind=kw.text, template_params=tparams)
        # template specialisation headers like 'class View<double*>' are
        # parsed and the args discarded (declaration identity is the name).
        if self._at("<"):
            saved = self.i
            args = self._try_template_args()
            if args is None:
                self.i = saved
        if self._accept(":"):
            while True:
                self._accept("public") or self._accept("private") or self._accept("protected")
                base = self._parse_type()
                if base is not None:
                    cls.bases.append(base)
                if not self._accept(","):
                    break
        if self._accept(";"):
            cls.span = SourceSpan(kw.file, kw.line)
            return cls
        self._expect("{")
        while not self._at("}"):
            if self._peek() is None:
                if self.recover:
                    diag.error(
                        "parse/unclosed-brace",
                        f"unexpected end of input in class {name!r}",
                        kw.file, kw.line, kw.col,
                    )
                    break
                raise ParseError(f"unclosed class {name!r}", kw.file, kw.line, kw.col)
            if self._accept("public") or self._accept("private") or self._accept("protected"):
                self._expect(":")
                continue
            start_i = self.i
            try:
                if self._at("template"):
                    d = self._parse_template()
                    if isinstance(d, FunctionDecl):
                        d.is_method = True
                        cls.methods.append(d)
                    continue
                self._parse_member(cls)
            except ParseError as e:
                if not self.recover:
                    raise
                self._report("parse/bad-member", e)
                cls.fields.append(
                    FieldDecl(name="<error>", span=self._error_span(start_i))
                )
                self._sync_stmt(start_i)
        self._expect_close("}")
        self._accept(";")
        cls.span = SourceSpan(kw.file, kw.line, (self._peek(-1) or kw).line)
        return cls

    def _parse_member(self, cls: ClassDecl) -> None:
        start = self._peek()
        if start is None:
            raise ParseError(f"unexpected end of input in class {cls.name!r}", self.path, 0, 0)
        attrs: list[str] = []
        while (t := self._peek()) is not None and t.text in _FN_ATTRS:
            attrs.append(t.text)
            self._advance()
        # destructor
        if self._at("~"):
            self._advance()
            self._advance()  # name
            self._expect("(")
            self._expect(")")
            body = self._parse_compound() if self._at("{") else None
            if body is None:
                self._expect(";")
            cls.methods.append(
                FunctionDecl(
                    name="~" + cls.name,
                    ret=None,
                    body=body,
                    is_method=True,
                    attrs=attrs,
                    span=SourceSpan(start.file, start.line),
                )
            )
            return
        # constructor: Name '('
        if self._at(cls.name) and self._at("(", 1):
            self._advance()
            fn = self._finish_function(cls.name, None, attrs, [], is_method=True, is_ctor=True)
            cls.methods.append(fn)
            return
        ty = self._parse_type()
        if ty is None:
            t = self._peek()
            raise ParseError(
                f"bad member in {cls.name}: {t.text if t else '<eof>'}",
                start.file,
                start.line,
                start.col,
            )
        # operator()
        if self._at("operator"):
            self._advance()
            op = ""
            while not self._at("("):
                op += self._advance().text
            if op == "":  # operator()
                self._expect("(")
                self._expect(")")
                op = "()"
            fn = self._finish_function("operator" + op, ty, attrs, [], is_method=True, is_operator=True)
            cls.methods.append(fn)
            return
        name = self._advance().text
        if self._at("("):
            fn = self._finish_function(name, ty, attrs, [], is_method=True)
            cls.methods.append(fn)
            return
        # field
        init = None
        if self._accept("="):
            init = self.parse_expr(no_comma=True)
        self._expect(";")
        cls.fields.append(
            FieldDecl(name=name, type=ty, init=init, span=SourceSpan(start.file, start.line))
        )

    def _parse_function_or_var(
        self, attrs: list[str], tparams: Optional[list[TemplateParam]] = None
    ) -> Decl:
        start = self._peek()
        if start is None:
            raise ParseError("unexpected end of input in declaration", self.path, 0, 0)
        attrs = list(attrs)
        while (t := self._peek()) is not None and t.text in _FN_ATTRS:
            attrs.append(t.text)
            self._advance()
        ty = self._parse_type()
        if ty is None:
            t = self._peek()
            raise ParseError(
                f"expected declaration, got {t.text if t else '<eof>'}",
                start.file,
                start.line,
                start.col,
            )
        name_tok = self._peek()
        if name_tok is None or name_tok.type not in (TokenType.IDENT, TokenType.KEYWORD):
            raise ParseError("expected declarator name", start.file, start.line, start.col)
        name = self._advance().text
        # qualified definition: Class::method — keep the last part as name.
        while self._accept("::"):
            name = self._advance().text
        if self._at("("):
            fn = self._finish_function(name, ty, attrs, tparams or [])
            fn.span = SourceSpan(start.file, start.line, fn.span.line_end if fn.span else start.line)
            return fn
        # global variable
        var = self._finish_var(name, ty, start)
        self._expect(";")
        return var

    def _finish_function(
        self,
        name: str,
        ret: Optional[TypeRef],
        attrs: list[str],
        tparams: list[TemplateParam],
        is_method: bool = False,
        is_ctor: bool = False,
        is_operator: bool = False,
    ) -> FunctionDecl:
        open_tok = self._expect("(")
        params: list[ParamDecl] = []
        if not self._at(")"):
            while True:
                pstart = self._peek()
                pty = self._parse_type()
                if pty is None:
                    raise ParseError(
                        "bad parameter",
                        pstart.file if pstart else "?",
                        pstart.line if pstart else 0,
                        0,
                    )
                pname = ""
                t = self._peek()
                if t is not None and t.type is TokenType.IDENT:
                    pname = self._advance().text
                default = None
                if self._accept("="):
                    default = self.parse_expr(no_comma=True)
                params.append(
                    ParamDecl(
                        name=pname,
                        type=pty,
                        default=default,
                        span=SourceSpan(pstart.file, pstart.line),
                    )
                )
                if not self._accept(","):
                    break
        self._expect(")")
        quals: list[str] = []
        while (t := self._peek()) is not None and t.text in ("const", "noexcept", "override"):
            quals.append(t.text)
            self._advance()
        inits: list[Stmt] = []
        if is_ctor and self._accept(":"):
            while True:
                fname = self._advance().text
                self._expect("(")
                args: list[Expr] = []
                if not self._at(")"):
                    while True:
                        args.append(self.parse_expr(no_comma=True))
                        if not self._accept(","):
                            break
                close = self._expect(")")
                span = SourceSpan(close.file, close.line)
                if len(args) == 1:
                    # member initialiser: semantically an assignment
                    init_expr: Expr = AssignExpr(
                        op="=", lhs=IdentExpr(parts=[fname], span=span), rhs=args[0], span=span
                    )
                else:
                    init_expr = CallExpr(
                        callee=IdentExpr(parts=[fname], span=span), args=args, span=span
                    )
                inits.append(ExprStmt(expr=init_expr, span=span))
                if not self._accept(","):
                    break
        body: Optional[CompoundStmt] = None
        if self._at("{"):
            body = self._parse_compound()
            if inits:
                body.stmts = inits + body.stmts
        else:
            self._expect(";")
        return FunctionDecl(
            name=name,
            ret=ret,
            params=params,
            body=body,
            attrs=attrs,
            template_params=tparams,
            is_method=is_method,
            is_ctor=is_ctor,
            is_operator=is_operator,
            qualifiers=quals,
            span=SourceSpan(open_tok.file, open_tok.line, (self._peek(-1) or open_tok).line),
        )

    def _finish_var(self, name: str, ty: TypeRef, start: Token) -> VarDecl:
        init: Optional[Expr] = None
        ctor_args: Optional[list[Expr]] = None
        if self._accept("="):
            init = self.parse_expr(no_comma=True)
        elif self._at("("):
            self._advance()
            ctor_args = []
            if not self._at(")"):
                while True:
                    ctor_args.append(self.parse_expr(no_comma=True))
                    if not self._accept(","):
                        break
            self._expect(")")
        elif self._at("{"):
            self._advance()
            items: list[Expr] = []
            if not self._at("}"):
                while True:
                    items.append(self.parse_expr(no_comma=True))
                    if not self._accept(","):
                        break
            self._expect("}")
            init = InitListExpr(items=items, span=SourceSpan(start.file, start.line))
        elif self._at("["):
            # C array declarator: T name[expr]
            self._advance()
            size = self.parse_expr()
            self._expect("]")
            ty = TypeRef(
                name=ty.name,
                template_args=ty.template_args + [size],
                pointer=ty.pointer + 1,
                is_const=ty.is_const,
                span=ty.span,
            )
        end = self._peek(-1) or start
        return VarDecl(
            name=name,
            type=ty,
            init=init,
            ctor_args=ctor_args,
            span=SourceSpan(start.file, start.line, end.line if end.file == start.file else start.line),
        )

    # ------------------------------------------------------------------
    # types
    # ------------------------------------------------------------------
    def _parse_type(self) -> Optional[TypeRef]:
        """Tentatively parse a type; returns None (position restored) on failure."""
        saved = self.i
        start = self._peek()
        if start is None:
            return None
        is_const = False
        while self._at("const") or self._at("volatile") or self._at("typename"):
            if self._at("const"):
                is_const = True
            self._advance()
        t = self._peek()
        if t is None:
            self.i = saved
            return None
        name_parts: list[str] = []
        if t.text in ("struct", "class", "enum", "union") and self._at_type(TokenType.IDENT, 1):
            self._advance()
            t = self._peek()
        if t.text in _TYPE_KEYWORDS:
            # multi-word builtins: unsigned long long, long double, ...
            while (tt := self._peek()) is not None and tt.text in _TYPE_KEYWORDS:
                name_parts.append(tt.text)
                self._advance()
            base = TypeRef(name=[" ".join(name_parts)], span=SourceSpan(t.file, t.line))
        elif t.type is TokenType.IDENT:
            name_parts = self._qualified_name()
            base = TypeRef(name=name_parts, span=SourceSpan(t.file, t.line))
            if self._at("<"):
                args = self._try_template_args()
                if args is None:
                    self.i = saved
                    return None
                base.template_args = args
        else:
            self.i = saved
            return None
        while True:
            if self._accept("*"):
                base.pointer += 1
                self._accept("const")
                self._accept("__restrict__")
            elif self._accept("&"):
                base.is_ref = True
            elif self._accept("const"):
                is_const = True
            else:
                break
        base.is_const = is_const
        return base

    def _qualified_name(self) -> list[str]:
        parts = [self._advance().text]
        while self._at("::") and (
            self._at_type(TokenType.IDENT, 1) or self._at_type(TokenType.KEYWORD, 1)
        ):
            self._advance()
            parts.append(self._advance().text)
        return parts

    def _try_template_args(self) -> Optional[list[Union[TypeRef, Expr]]]:
        """Tentative template-argument-list parse starting at '<'."""
        saved = self.i
        if not self._accept("<"):
            return None
        args: list[Union[TypeRef, Expr]] = []
        if self._at(">") or self._at(">>") or self._at(">>>"):
            self._expect_gt()
            return args
        while True:
            t = self._peek()
            if t is None:
                self.i = saved
                return None
            # 'class foo' — SYCL kernel-name idiom
            if t.text in ("class", "typename") and self._at_type(TokenType.IDENT, 1):
                self._advance()
                kn = self._advance().text
                args.append(TypeRef(name=[kn], span=SourceSpan(t.file, t.line)))
            else:
                arg = self._parse_type()
                if arg is not None and (
                    self._at(",") or self._at(">") or self._at(">>") or self._at(">>>")
                ):
                    args.append(arg)
                else:
                    if arg is not None:
                        # parsed as type but not followed by , or > — rewind
                        # and try expression instead
                        pass
                    try:
                        expr = self.parse_expr(no_comma=True, no_gt=True)
                    except ParseError:
                        self.i = saved
                        return None
                    args.append(expr)
            if self._accept(","):
                continue
            if self._at(">") or self._at(">>") or self._at(">>>"):
                self._expect_gt()
                return args
            self.i = saved
            return None

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------
    def _parse_compound(self) -> CompoundStmt:
        open_tok = self._expect("{")
        node = CompoundStmt()
        while not self._at("}"):
            if self.recover and self._peek() is None:
                diag.error(
                    "parse/unclosed-brace",
                    "unexpected end of input: unclosed '{'",
                    open_tok.file, open_tok.line, open_tok.col,
                )
                node.span = SourceSpan(open_tok.file, open_tok.line)
                return node
            start_i = self.i
            try:
                node.stmts.append(self.parse_stmt())
            except ParseError as e:
                if not self.recover:
                    raise
                self._report("parse/bad-stmt", e)
                node.stmts.append(ErrorStmt(message=str(e), span=self._error_span(start_i)))
                self._sync_stmt(start_i)
        close = self._expect("}")
        node.span = SourceSpan(
            open_tok.file,
            open_tok.line,
            close.line if close.file == open_tok.file else open_tok.line,
        )
        return node

    def parse_stmt(self) -> Stmt:
        t = self._peek()
        if t is None:
            raise ParseError("unexpected end of input in statement", self.path, 0, 0)
        if t.type is TokenType.DIRECTIVE:
            return self._parse_pragma_stmt()
        if t.text == "{":
            return self._parse_compound()
        if t.text == ";":
            self._advance()
            return ExprStmt(expr=None, span=SourceSpan(t.file, t.line))
        if t.text == "if":
            return self._parse_if()
        if t.text == "for":
            return self._parse_for()
        if t.text == "while":
            return self._parse_while()
        if t.text == "do":
            return self._parse_do()
        if t.text == "return":
            self._advance()
            value = None if self._at(";") else self.parse_expr()
            self._expect(";")
            return ReturnStmt(value=value, span=SourceSpan(t.file, t.line))
        if t.text == "break":
            self._advance()
            self._expect(";")
            return BreakStmt(span=SourceSpan(t.file, t.line))
        if t.text == "continue":
            self._advance()
            self._expect(";")
            return ContinueStmt(span=SourceSpan(t.file, t.line))
        # declaration?
        decl = self._try_decl_stmt()
        if decl is not None:
            return decl
        expr = self.parse_expr()
        self._expect(";")
        return ExprStmt(expr=expr, span=SourceSpan(t.file, t.line))

    def _try_decl_stmt(self) -> Optional[DeclStmt]:
        saved = self.i
        start = self._peek()
        if start is None:
            return None
        is_static = self._accept("static")
        ty = self._parse_type()
        if ty is None:
            self.i = saved
            return None
        t = self._peek()
        if t is None or t.type is not TokenType.IDENT:
            self.i = saved
            return None
        nxt = self._peek(1)
        if nxt is None or nxt.text not in ("=", ";", "(", ",", "[", "{"):
            self.i = saved
            return None
        decls: list[VarDecl] = []
        while True:
            name = self._advance().text
            var = self._finish_var(name, ty, start)
            var.is_static = is_static
            decls.append(var)
            if not self._accept(","):
                break
            # subsequent declarators share the base type
        try:
            self._expect(";")
        except ParseError:
            self.i = saved
            return None
        return DeclStmt(decls=decls, span=SourceSpan(start.file, start.line))

    def _parse_if(self) -> IfStmt:
        t = self._expect("if")
        self._expect("(")
        cond = self.parse_expr()
        self._expect(")")
        then = self.parse_stmt()
        other = None
        if self._accept("else"):
            other = self.parse_stmt()
        return IfStmt(cond=cond, then=then, other=other, span=SourceSpan(t.file, t.line))

    def _parse_for(self) -> ForStmt:
        t = self._expect("for")
        self._expect("(")
        init: Optional[Stmt] = None
        if not self._accept(";"):
            init = self._try_decl_stmt()
            if init is None:
                e = self.parse_expr()
                self._expect(";")
                init = ExprStmt(expr=e, span=SourceSpan(t.file, t.line))
        cond = None if self._at(";") else self.parse_expr()
        self._expect(";")
        inc = None if self._at(")") else self.parse_expr()
        self._expect(")")
        body = self.parse_stmt()
        end_line = body.span.line_end if body.span and body.span.file == t.file else t.line
        return ForStmt(init=init, cond=cond, inc=inc, body=body, span=SourceSpan(t.file, t.line, end_line))

    def _parse_while(self) -> WhileStmt:
        t = self._expect("while")
        self._expect("(")
        cond = self.parse_expr()
        self._expect(")")
        body = self.parse_stmt()
        return WhileStmt(cond=cond, body=body, span=SourceSpan(t.file, t.line))

    def _parse_do(self) -> DoStmt:
        t = self._expect("do")
        body = self.parse_stmt()
        self._expect("while")
        self._expect("(")
        cond = self.parse_expr()
        self._expect(")")
        self._expect(";")
        return DoStmt(body=body, cond=cond, span=SourceSpan(t.file, t.line))

    # ------------------------------------------------------------------
    # pragmas
    # ------------------------------------------------------------------
    def _parse_pragma_tokens(self, tok: DirectiveToken) -> tuple[str, list[str], list[PragmaClause]]:
        toks = tok.tokens()  # 'omp parallel for ...'
        family = toks[0].text if toks else ""
        i = 1
        directives: list[str] = []
        clauses: list[PragmaClause] = []
        while i < len(toks):
            w = toks[i]
            nxt = toks[i + 1] if i + 1 < len(toks) else None
            if nxt is not None and nxt.text == "(":
                # clause with arguments
                j = i + 2
                depth = 1
                args: list[str] = []
                cur = ""
                while j < len(toks) and depth:
                    tt = toks[j]
                    if tt.text == "(":
                        depth += 1
                        cur += tt.text
                    elif tt.text == ")":
                        depth -= 1
                        if depth:
                            cur += tt.text
                    elif tt.text == "," and depth == 1:
                        args.append(cur)
                        cur = ""
                    else:
                        cur += (" " if cur and tt.text not in ":.[]" and cur[-1] not in ":.[]" else "") + tt.text
                    j += 1
                if cur:
                    args.append(cur)
                clauses.append(
                    PragmaClause(name=w.text, arguments=args, span=SourceSpan(tok.file, tok.line))
                )
                i = j
            elif w.text in _DIRECTIVE_WORDS and not clauses:
                directives.append(w.text)
                i += 1
            else:
                clauses.append(PragmaClause(name=w.text, span=SourceSpan(tok.file, tok.line)))
                i += 1
        return family, directives, clauses

    def _parse_pragma_stmt(self) -> PragmaStmt:
        tok = self._advance()
        family, directives, clauses = self._parse_pragma_tokens(tok)
        node = PragmaStmt(
            family=family,
            directives=directives,
            clauses=clauses,
            span=SourceSpan(tok.file, tok.line),
        )
        if directives and not (set(directives) & _STANDALONE):
            nxt = self._peek()
            if nxt is not None and nxt.text != "}":
                node.body = self.parse_stmt()
        return node

    def _parse_pragma_decl(self) -> PragmaDecl:
        tok = self._advance()
        family, directives, clauses = self._parse_pragma_tokens(tok)
        return PragmaDecl(
            family=family,
            directives=directives,
            clauses=clauses,
            span=SourceSpan(tok.file, tok.line),
        )

    # ------------------------------------------------------------------
    # expressions (precedence climbing)
    # ------------------------------------------------------------------
    _BIN_LEVELS = [
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
    _ASSIGN_OPS = ("=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=")

    def parse_expr(self, no_comma: bool = False, no_gt: bool = False) -> Expr:
        e = self._parse_assign(no_gt)
        if not no_comma:
            while self._at(","):
                # comma operator: rare; keep left-to-right sequencing node
                self._advance()
                rhs = self._parse_assign(no_gt)
                e = BinaryExpr(op=",", lhs=e, rhs=rhs, span=e.span)
        return e

    def _parse_assign(self, no_gt: bool) -> Expr:
        lhs = self._parse_cond(no_gt)
        t = self._peek()
        if t is not None and t.text in self._ASSIGN_OPS:
            self._advance()
            rhs = self._parse_assign(no_gt)
            return AssignExpr(op=t.text, lhs=lhs, rhs=rhs, span=lhs.span)
        return lhs

    def _parse_cond(self, no_gt: bool) -> Expr:
        cond = self._parse_binary(0, no_gt)
        if self._at("?"):
            self._advance()
            then = self.parse_expr(no_comma=True)
            self._expect(":")
            other = self._parse_assign(no_gt)
            return CondExpr(cond=cond, then=then, other=other, span=cond.span)
        return cond

    def _parse_binary(self, level: int, no_gt: bool) -> Expr:
        if level >= len(self._BIN_LEVELS):
            return self._parse_unary(no_gt)
        lhs = self._parse_binary(level + 1, no_gt)
        ops = self._BIN_LEVELS[level]
        while True:
            t = self._peek()
            if t is None or t.text not in ops:
                break
            if no_gt and t.text in (">", ">>"):
                break
            self._advance()
            rhs = self._parse_binary(level + 1, no_gt)
            lhs = BinaryExpr(op=t.text, lhs=lhs, rhs=rhs, span=lhs.span)
        return lhs

    def _parse_unary(self, no_gt: bool) -> Expr:
        t = self._peek()
        if t is None:
            raise ParseError("unexpected end of expression", self.path, 0, 0)
        if t.text in ("-", "+", "!", "~", "*", "&", "++", "--"):
            self._advance()
            operand = self._parse_unary(no_gt)
            return UnaryExpr(op=t.text, operand=operand, prefix=True, span=SourceSpan(t.file, t.line))
        if t.text == "sizeof":
            self._advance()
            self._expect("(")
            saved = self.i
            ty = self._parse_type()
            if ty is not None and self._at(")"):
                self._advance()
                return SizeofExpr(type=ty, span=SourceSpan(t.file, t.line))
            self.i = saved
            e = self.parse_expr()
            self._expect(")")
            return SizeofExpr(operand=e, span=SourceSpan(t.file, t.line))
        if t.text == "new":
            self._advance()
            ty = self._parse_type()
            if ty is None:
                raise ParseError("bad new-expression", t.file, t.line, t.col)
            if self._accept("["):
                size = self.parse_expr()
                self._expect("]")
                return NewExpr(type=ty, array_size=size, span=SourceSpan(t.file, t.line))
            ctor: list[Expr] = []
            if self._accept("("):
                if not self._at(")"):
                    while True:
                        ctor.append(self.parse_expr(no_comma=True))
                        if not self._accept(","):
                            break
                self._expect(")")
            return NewExpr(type=ty, ctor_args=ctor, span=SourceSpan(t.file, t.line))
        if t.text == "delete":
            self._advance()
            is_array = False
            if self._accept("["):
                self._expect("]")
                is_array = True
            operand = self._parse_unary(no_gt)
            return DeleteExpr(operand=operand, is_array=is_array, span=SourceSpan(t.file, t.line))
        return self._parse_postfix(no_gt)

    def _parse_postfix(self, no_gt: bool) -> Expr:
        e = self._parse_primary(no_gt)
        while True:
            t = self._peek()
            if t is None:
                return e
            if t.text == "(":
                self._advance()
                args: list[Expr] = []
                if not self._at(")"):
                    while True:
                        args.append(self.parse_expr(no_comma=True))
                        if not self._accept(","):
                            break
                close = self._expect(")")
                e = CallExpr(callee=e, args=args, span=SourceSpan(t.file, t.line, close.line if close.file == t.file else t.line))
            elif t.text == "<<<":
                self._advance()
                config: list[Expr] = []
                while True:
                    config.append(self.parse_expr(no_comma=True))
                    if not self._accept(","):
                        break
                self._expect(">>>")
                self._expect("(")
                args = []
                if not self._at(")"):
                    while True:
                        args.append(self.parse_expr(no_comma=True))
                        if not self._accept(","):
                            break
                self._expect(")")
                e = KernelLaunchExpr(callee=e, config=config, args=args, span=SourceSpan(t.file, t.line))
            elif t.text == "[":
                self._advance()
                idx = self.parse_expr()
                self._expect("]")
                e = SubscriptExpr(base=e, index=idx, span=SourceSpan(t.file, t.line))
            elif t.text in (".", "->"):
                self._advance()
                member = self._advance().text
                # member template: .get<double>() — consume template args
                targs = None
                if self._at("<"):
                    targs = self._try_template_args()
                e = MemberExpr(base=e, member=member, arrow=(t.text == "->"), span=SourceSpan(t.file, t.line))
                if targs is not None and self._at("("):
                    self._advance()
                    args = []
                    if not self._at(")"):
                        while True:
                            args.append(self.parse_expr(no_comma=True))
                            if not self._accept(","):
                                break
                    self._expect(")")
                    e = CallExpr(callee=e, args=args, template_args=targs, span=SourceSpan(t.file, t.line))
            elif t.text in ("++", "--"):
                self._advance()
                e = UnaryExpr(op=t.text, operand=e, prefix=False, span=SourceSpan(t.file, t.line))
            elif t.text == "<" and not no_gt:
                # possible explicit template call: f<double>(x)
                saved = self.i
                targs = self._try_template_args()
                if targs is not None and self._at("("):
                    self._advance()
                    args = []
                    if not self._at(")"):
                        while True:
                            args.append(self.parse_expr(no_comma=True))
                            if not self._accept(","):
                                break
                    self._expect(")")
                    e = CallExpr(callee=e, args=args, template_args=targs, span=SourceSpan(t.file, t.line))
                elif targs is not None and self._at("<<<"):
                    self.i = saved
                    return e
                else:
                    self.i = saved
                    return e
            else:
                return e

    def _parse_primary(self, no_gt: bool) -> Expr:
        t = self._peek()
        if t is None:
            raise ParseError("unexpected end of expression", self.path, 0, 0)
        span = SourceSpan(t.file, t.line)
        if t.type is TokenType.INT:
            self._advance()
            return LiteralExpr(kind="int", value=t.text, span=span)
        if t.type is TokenType.FLOAT:
            self._advance()
            return LiteralExpr(kind="float", value=t.text, span=span)
        if t.type is TokenType.STRING:
            self._advance()
            return LiteralExpr(kind="string", value=t.text, span=span)
        if t.type is TokenType.CHAR:
            self._advance()
            return LiteralExpr(kind="char", value=t.text, span=span)
        if t.text in ("true", "false"):
            self._advance()
            return LiteralExpr(kind="bool", value=t.text, span=span)
        if t.text == "nullptr":
            self._advance()
            return LiteralExpr(kind="nullptr", value="nullptr", span=span)
        if t.text == "this":
            self._advance()
            return ThisExpr(span=span)
        if t.text == "[":
            return self._parse_lambda()
        if t.text == "{":
            self._advance()
            items: list[Expr] = []
            if not self._at("}"):
                while True:
                    items.append(self.parse_expr(no_comma=True))
                    if not self._accept(","):
                        break
            self._expect("}")
            return InitListExpr(items=items, span=span)
        if t.text == "(":
            # cast or parenthesised expression
            saved = self.i
            self._advance()
            ty = self._parse_type()
            if ty is not None and self._at(")"):
                self._advance()
                nxt = self._peek()
                # looks like a cast when followed by something that starts
                # an expression
                if nxt is not None and (
                    nxt.type
                    in (
                        TokenType.IDENT,
                        TokenType.INT,
                        TokenType.FLOAT,
                        TokenType.STRING,
                        TokenType.CHAR,
                    )
                    or nxt.text in ("(", "-", "+", "*", "&", "!", "~")
                    or nxt.text in ("true", "false", "nullptr", "this", "sizeof", "new")
                ):
                    operand = self._parse_unary(no_gt)
                    return CastExpr(type=ty, operand=operand, kind="c", span=span)
            self.i = saved
            self._advance()
            e = self.parse_expr()
            self._expect(")")
            return e
        if t.text in ("static_cast", "reinterpret_cast", "const_cast", "dynamic_cast"):
            kindmap = {"static_cast": "static", "reinterpret_cast": "reinterpret"}
            self._advance()
            self._expect("<")
            ty = self._parse_type()
            self._expect_gt()
            self._expect("(")
            operand = self.parse_expr()
            self._expect(")")
            return CastExpr(type=ty, operand=operand, kind=kindmap.get(t.text, "c"), span=span)
        if t.type in (TokenType.IDENT, TokenType.KEYWORD):
            # functional cast on builtin types: double(x), int(n)
            if t.text in _TYPE_KEYWORDS and self._at("(", 1):
                self._advance()
                self._advance()
                operand = self.parse_expr()
                self._expect(")")
                return CastExpr(
                    type=TypeRef(name=[t.text], span=span), operand=operand, kind="c", span=span
                )
            parts = self._qualified_name()
            return IdentExpr(parts=parts, span=span)
        raise ParseError(f"unexpected token {t.text!r} in expression", t.file, t.line, t.col)

    def _parse_lambda(self) -> LambdaExpr:
        t = self._expect("[")
        capture = ""
        while not self._at("]"):
            capture += self._advance().text
        self._expect("]")
        params: list[ParamDecl] = []
        if self._accept("("):
            if not self._at(")"):
                while True:
                    pstart = self._peek()
                    pty = self._parse_type()
                    pname = ""
                    if self._at_type(TokenType.IDENT):
                        pname = self._advance().text
                    params.append(
                        ParamDecl(
                            name=pname,
                            type=pty,
                            span=SourceSpan(pstart.file, pstart.line) if pstart else None,
                        )
                    )
                    if not self._accept(","):
                        break
            self._expect(")")
        self._accept("mutable")
        if self._accept("->"):
            self._parse_type()
        body = self._parse_compound()
        return LambdaExpr(capture=capture, params=params, body=body, span=SourceSpan(t.file, t.line))


# ---------------------------------------------------------------------------
# module-level helpers
# ---------------------------------------------------------------------------


def parse_tokens(
    tokens: list[Token], path: str = "<memory>", recover: bool = False
) -> TranslationUnit:
    """Parse a significant token stream into a :class:`TranslationUnit`.

    ``recover=True`` enables panic-mode error recovery: unparseable
    declarations/statements become error-node placeholders plus
    diagnostics instead of raising.
    """
    return Parser(tokens, path, recover=recover).parse_translation_unit()


def parse_unit(
    fs: VirtualFS,
    path: str,
    defines: Optional[dict[str, str]] = None,
    recover: bool = False,
) -> TranslationUnit:
    """Preprocess + parse one translation unit from a virtual filesystem."""
    pp = preprocess(fs, path, defines, recover=recover)
    tu = parse_tokens(pp.tokens, path, recover=recover)
    return tu
