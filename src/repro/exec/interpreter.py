"""The MiniC++ AST interpreter.

Serial reference semantics for everything, including the parallel dialects:

* ``#pragma omp …`` bodies run inline (master-thread semantics),
* CUDA/HIP ``<<<grid, block>>>`` launches iterate the whole index space,
* SYCL/Kokkos/TBB/StdPar launchers call their lambdas in a loop via the
  intrinsics registry (:mod:`repro.exec.intrinsics`).

Every executed statement, variable declaration, function entry, call and
kernel launch records its source line;
:func:`repro.coverage.profile_from_run` turns those records into the profile
whose line mask the ``+coverage`` metric variants apply.

Closure form: each statement, expression and function is translated into
a Python closure the first time a run reaches it, and the closures are
cached on that run's :class:`Interpreter`. Whatever cannot change during a
run is resolved once, at translation: literal values, ``(file, line)``
coverage keys, operator functions, ``sema.functions`` lookups, the
intrinsic registries and user-class names. Translation never raises; an
error belongs to the evaluation that raises it, exactly as in a tree walk.
Statement closures return ``None`` when control falls through,
``_BREAK`` / ``_CONTINUE`` for a loop exit and ``(value,)`` for a
``return``, so returns unwind without exceptions.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

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
    DeclStmt,
    DeleteExpr,
    DoStmt,
    Expr,
    ExprStmt,
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
    PragmaStmt,
    ReturnStmt,
    SizeofExpr,
    SubscriptExpr,
    ThisExpr,
    TranslationUnit,
    TypeRef,
    UnaryExpr,
    VarDecl,
    WhileStmt,
)
from repro.lang.cpp.sema import SemaResult
from repro.util.errors import InterpreterError

from repro.exec.values import Buffer, Cell, Environment, Lambda, Pointer, StructVal

#: Python errors a running program can raise (``1 % 0``, a taken ``0x``
#: literal, an out-of-range index, runaway recursion); ``run`` reports
#: them as an :class:`InterpreterError` naming the Python error.
_RUNTIME_FAULTS = (ArithmeticError, ValueError, TypeError, IndexError, RecursionError)

_FUEL = "execution fuel exhausted (possible infinite loop)"


class _Break(Exception):
    """A ``break`` that left its function (or lambda) without a loop."""


class _Continue(Exception):
    """A ``continue`` that left its function (or lambda) without a loop."""


#: statement outcomes besides ``None`` (fell through) and ``(value,)``
_BREAK = object()
_CONTINUE = object()

Code = Callable[[Environment], Any]


@dataclass
class ExecutionResult:
    """Outcome of one interpreted run."""

    value: Any
    coverage: Counter  # (file, line) -> hits
    stdout: list[str] = field(default_factory=list)
    steps: int = 0

    def hits(self, file: str, line: int) -> int:
        return self.coverage.get((file, line), 0)


# ---------------------------------------------------------------------------
# value helpers (no AST dispatch)
# ---------------------------------------------------------------------------

_NUM_OPS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "%": lambda a, b: int(a) % int(b),
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
    "!=": operator.ne,
    "<<": lambda a, b: int(a) << int(b),
    ">>": lambda a, b: int(a) >> int(b),
    "&": lambda a, b: int(a) & int(b),
    "|": lambda a, b: int(a) | int(b),
    "^": lambda a, b: int(a) ^ int(b),
}

_INT_TYPES = ("int", "long", "unsigned", "unsigned int", "long long", "size_t")


def _literal_value(e: LiteralExpr) -> Any:
    if e.kind == "int":
        return int(e.value.rstrip("uUlL"), 0)
    if e.kind == "float":
        return float(e.value.rstrip("fFlL"))
    if e.kind in ("string", "char"):
        return e.value[1:-1]
    if e.kind == "bool":
        return e.value == "true"
    return None  # nullptr


#: what _constant returns for an operand that is not a well-formed literal
_VARIABLE = object()


def _constant(e: Optional[Expr]) -> Any:
    """The value of a well-formed literal operand, else ``_VARIABLE``: a
    parent folds it rather than call a closure for it on every evaluation."""
    if isinstance(e, LiteralExpr):
        try:
            return _literal_value(e)
        except ValueError:  # malformed (0x): evaluated, and raised, later
            pass
    return _VARIABLE


def _short(name: str) -> str:
    return name.rsplit("::", 1)[-1]


# An lvalue slot is ("cell", Cell) | ("ptr", Pointer, index) |
# ("list", list, index)
def _index_slot(base: Any, idx: Any):
    if isinstance(base, Pointer):
        return ("ptr", base, int(idx))
    if isinstance(base, StructVal):
        if "ptr" in base.payload:
            off = int(idx.payload.get("index", 0)) if isinstance(idx, StructVal) else int(idx)
            return ("ptr", base.payload["ptr"], off)
    if isinstance(base, list):
        return ("list", base, int(idx))
    raise InterpreterError(f"cannot index into {type(base).__name__}")


def _slot_load(slot) -> Any:
    kind = slot[0]
    if kind == "cell":
        return slot[1].value
    if kind == "ptr":
        return slot[1].load(slot[2])
    return slot[1][slot[2]]


def _slot_store(slot, value: Any) -> None:
    kind = slot[0]
    if kind == "cell":
        slot[1].value = value
    elif kind == "ptr":
        slot[1].store(slot[2], value)
    else:
        slot[1][slot[2]] = value


def _combine(op: str) -> Callable[[Any, Any], Any]:
    """The value a compound assignment (``op`` is ``+=``, ``<<=``, …)
    stores, from the current value and the right-hand side."""
    fn = _NUM_OPS.get(op[:-1])
    if fn is None and op[:-1] == "/":

        def fn(cur, rhs):
            return (cur // rhs) if isinstance(cur, int) and isinstance(rhs, int) else cur / rhs

    if fn is None:

        def fn(cur, rhs):
            raise InterpreterError(f"unsupported compound op {op!r}")

    if op not in ("+=", "-="):
        return fn
    neg = op == "-="

    def pointer_aware(cur, rhs):
        if isinstance(cur, Pointer):
            return cur.add(-int(rhs) if neg else int(rhs))
        return fn(cur, rhs)

    return pointer_aware


def _nothing(env: Environment) -> None:
    return None


def _escape(r: Any) -> None:
    """A loop exit with no loop left in its function escapes to the
    caller's loop."""
    raise _Break() if r is _BREAK else _Continue()


def _pointer_step(a: Pointer, b: Any, plus: bool) -> Any:
    """``a + b`` / ``a - b`` with a pointer on the left."""
    if isinstance(b, Pointer):
        if not plus:
            return a.offset - b.offset
        raise InterpreterError("pointer + pointer")
    return a.add(int(b) if plus else -int(b))


class Interpreter:
    """Interprets one analysed translation unit."""

    #: execution fuel — guards accidental infinite loops in corpus code.
    MAX_STEPS = 30_000_000

    def __init__(self, tu: TranslationUnit, sema: SemaResult):
        self.tu = tu
        self.sema = sema
        self.coverage: Counter = Counter()
        self.stdout: list[str] = []
        self.steps = 0
        self.globals = Environment()
        # late import: the registry needs Interpreter types
        from repro.exec import intrinsics as _intr

        self.intrinsics = _intr
        #: (kind, id(node)) -> closure; AST nodes outlive the run, so ids are stable
        self._code: dict[tuple[str, int], Callable] = {}
        #: class name -> ClassDecl (or None), for runtime values
        self._classes: dict[str, Optional[ClassDecl]] = {}
        self._class_shorts = {_short(q) for q in sema.classes}

    # -- entry ---------------------------------------------------------------
    def run(self, entry: str = "main", args: Optional[list[Any]] = None) -> ExecutionResult:
        fn = self.sema.functions.get(entry)
        if fn is None or fn.body is None:
            raise InterpreterError(f"no definition for entry point {entry!r}")

        try:
            self._define_globals(self.tu.decls)
            value = self.call_function(fn, args or [])
        except _RUNTIME_FAULTS as e:
            raise InterpreterError(f"{type(e).__name__}: {e}") from e
        return ExecutionResult(value, self.coverage, self.stdout, self.steps)

    def _define_globals(self, decls) -> None:
        """Global variables, including namespace-nested ones from headers."""
        for d in decls:
            if isinstance(d, VarDecl):
                self.globals.define(
                    d.name,
                    self.eval_expr(d.init, self.globals) if d.init is not None else 0,
                )
            elif isinstance(d, NamespaceDecl):
                self._define_globals(d.decls)

    def eval_expr(self, e: Optional[Expr], env: Environment) -> Any:
        return self._expr(e)(env)

    def _lvalue_cell(self, e: Optional[Expr], env: Environment) -> Any:
        """&expr — returns a Cell for scalars or a Pointer for elements."""
        return self._address(e)(env)

    # -- functions ------------------------------------------------------------
    def call_function(
        self, fn: FunctionDecl, args: list[Any], this: Optional[StructVal] = None
    ) -> Any:
        return self._function(fn)(args, this)

    def call_lambda(self, lam: Lambda, args: list[Any]) -> Any:
        return self._cached("lambda", lam.node, self._lambda_body)(lam.env, args)

    def call_value(self, value: Any, args: list[Any]) -> Any:
        """Invoke a callable runtime value (lambda, functor, function)."""
        if isinstance(value, Lambda):
            return self.call_lambda(value, args)
        if isinstance(value, FunctionDecl):
            return self.call_function(value, args)
        if isinstance(value, StructVal):
            # functor: operator()
            cls = self._class_of(value.class_name)
            if cls is not None:
                for m in cls.methods:
                    if m.is_operator and m.name == "operator()" and m.body is not None:
                        return self.call_function(m, args, this=value)
            hit = self.intrinsics.method(value.class_name, "operator()")
            if hit is not None:
                return hit(self, value, args)
        if callable(value):
            return value(*args)
        raise InterpreterError(f"value is not callable: {value!r}")

    def _class_of(self, class_name: str) -> Optional[ClassDecl]:
        if class_name in self._classes:
            return self._classes[class_name]
        classes = self.sema.classes
        cls = classes.get(class_name)
        if cls is None:
            short = _short(class_name)
            cls = next((c for q, c in classes.items() if _short(q) == short), None)
        self._classes[class_name] = cls
        return cls

    def _flatten_index(self, view: StructVal, idxs: list[Any]) -> int:
        dims = view.payload.get("dims")
        ints = [int(i) for i in idxs]
        if not dims or len(ints) == 1:
            return ints[0]
        flat = 0
        for d, i in zip(dims, ints):
            flat = flat * d + i
        return flat

    def _function_named(self, name: str) -> Optional[FunctionDecl]:
        functions = self.sema.functions
        fn = functions.get(name)
        return fn if fn is not None else functions.get(_short(name))

    def _is_class_type(self, ty) -> bool:
        if ty is None or ty.pointer:
            return False
        name = ty.base_name
        if self.intrinsics.ctor(name) is not None:
            return True
        if name in ("int", "double", "float", "bool", "auto"):
            return False
        return name in self.sema.classes or _short(name) in self._class_shorts

    # -- translation -----------------------------------------------------------
    def _cached(self, kind: str, node, build: Callable) -> Callable:
        key = (kind, id(node))
        code = self._code.get(key)
        if code is None:
            code = self._code[key] = build(node)
        return code

    def _expr(self, e: Optional[Expr]) -> Code:
        if e is None:
            return _nothing
        return self._cached("value", e, self._build_expr)

    def _lvalue(self, e: Optional[Expr]) -> Code:
        return self._cached("slot", e, self._build_lvalue)

    def _address(self, e: Optional[Expr]) -> Code:
        return self._cached("address", e, self._build_address)

    def _function(self, fn: FunctionDecl) -> Callable:
        return self._cached("function", fn, self._build_function)

    def _tick(self, node) -> Callable[[], None]:
        """One record of ``node``: a hit on its line (resolved here, once)
        and one step of fuel. First hits keep the ``Counter``'s order."""
        span = getattr(node, "span", None)
        cov = self.coverage
        limit = self.MAX_STEPS
        interp = self
        if span is None:

            def tick() -> None:
                steps = interp.steps + 1
                interp.steps = steps
                if steps > limit:
                    raise InterpreterError(_FUEL)

            return tick
        key = (span.file, span.line_start)

        def tick() -> None:
            cov[key] += 1
            steps = interp.steps + 1
            interp.steps = steps
            if steps > limit:
                raise InterpreterError(_FUEL)

        return tick

    def _constructor(self, ty: Optional[TypeRef]) -> Callable[[list[Any]], Any]:
        name = ty.base_name if ty is not None else "struct"
        interp = self
        ctor = self.intrinsics.ctor(name)
        if ctor is not None:
            targs = [str(a) for a in (ty.template_args if ty is not None else [])]
            return lambda args: ctor(interp, targs, args)
        cls = self._class_of(name)

        def construct(args: list[Any]) -> StructVal:
            inst = StructVal(name)
            if cls is not None:
                for f in cls.fields:
                    inst.fields[f.name] = Cell(0)
                for m in cls.methods:
                    if m.is_ctor and m.body is not None and len(m.params) == len(args):
                        interp.call_function(m, args, this=inst)
                        break
            return inst

        return construct

    # -- functions and lambdas -------------------------------------------------
    def _build_function(self, fn: FunctionDecl) -> Callable:
        if fn.body is None:
            msg = f"call to undefined function {fn.name!r}"

            def undefined(args, this=None):
                raise InterpreterError(msg)

            return undefined
        tick = self._tick(fn)
        params = self._params(fn.params)
        nparams = len(fn.params)
        defaults = [
            (p.name, self._expr(p.default) if p.default is not None else None)
            for p in fn.params
        ]
        body = self._stmt(fn.body)
        interp = self

        def invoke(args: list[Any], this: Optional[StructVal] = None) -> Any:
            env = Environment(interp.globals)
            tick()
            for (name, is_ref), a in zip(params, args):
                if name:
                    env.vars[name] = a if is_ref and isinstance(a, Cell) else Cell(a)
            if len(args) < nparams:  # defaulted trailing params
                for name, default in defaults[len(args) :]:
                    if name:
                        env.define(name, default(env) if default is not None else 0)
            if this is not None:
                env.define("this", this)
                for name, cell in this.fields.items():
                    env.bind_cell(name, cell)
            r = body(env)
            if r is None:
                return None
            if r is _BREAK or r is _CONTINUE:
                _escape(r)
            return r[0]

        return invoke

    def _lambda_body(self, node: LambdaExpr) -> Callable:
        params = self._params(node.params)
        body = self._stmt(node.body)

        def invoke(captured: Environment, args: list[Any]) -> Any:
            env = Environment(captured)
            for (name, is_ref), a in zip(params, args):
                if name:
                    env.vars[name] = a if is_ref and isinstance(a, Cell) else Cell(a)
            r = body(env)
            if r is None:
                return None
            if r is _BREAK or r is _CONTINUE:
                _escape(r)
            return r[0]

        return invoke

    @staticmethod
    def _params(params) -> list[tuple[str, bool]]:
        """``(name, is_ref)`` per parameter. A Cell passed to a reference
        param aliases it; Cells passed to non-reference params are
        pointer-to-scalar values (&x) and stay wrapped."""
        return [(p.name, p.type is not None and p.type.is_ref) for p in params]

    # -- statements ---------------------------------------------------------------
    def _stmt(self, s) -> Code:
        if s is None:
            return _nothing
        build = _STMT_TRANSLATORS.get(type(s), Interpreter._build_plain_stmt)
        return build(self, s)

    def _build_plain_stmt(self, s) -> Code:
        tick = self._tick(s)

        def plain(env):
            tick()

        return plain

    def _build_compound(self, s: CompoundStmt) -> Code:
        tick = self._tick(s)
        codes = [self._stmt(st) for st in s.stmts]

        def compound(env):
            tick()
            inner = Environment(env)
            for code in codes:
                r = code(inner)
                if r is not None:
                    return r
            return None

        return compound

    def _build_expr_stmt(self, s: ExprStmt) -> Code:
        tick = self._tick(s)
        expr = self._expr(s.expr)

        def expr_stmt(env):
            tick()
            expr(env)

        return expr_stmt

    def _build_decl_stmt(self, s: DeclStmt) -> Code:
        tick = self._tick(s)
        decls = [self._var(v) for v in s.decls]

        def decl_stmt(env):
            tick()
            for decl in decls:
                decl(env)

        return decl_stmt

    def _var(self, v: VarDecl) -> Code:
        tick = self._tick(v)
        name = v.name
        if v.init is not None:
            init = self._expr(v.init)

            def init_var(env):
                tick()
                env.vars[name] = Cell(init(env))

            return init_var
        # C array declarator (T name[size]): the parser folds the size into
        # the type's template_args and bumps pointer depth.
        size = None
        if (
            v.type is not None
            and v.type.pointer > 0
            and v.type.template_args
            and not isinstance(v.type.template_args[-1], type(v.type))
        ):
            size = self._expr(v.type.template_args[-1])
        construct = None
        if v.ctor_args is not None or (v.type is not None and self._is_class_type(v.type)):
            construct = self._constructor(v.type)
        ctor_args = [self._expr(a) for a in (v.ctor_args or [])]

        def var(env):
            tick()
            if size is not None:
                try:
                    n = int(size(env))
                except (InterpreterError, TypeError, ValueError):
                    n = 0
                if n > 0:
                    env.define(name, Pointer(Buffer(n, label=name)))
                    return
            if construct is not None:
                env.define(name, construct([a(env) for a in ctor_args]))
                return
            env.define(name, 0)

        return var

    def _build_if(self, s: IfStmt) -> Code:
        tick = self._tick(s)
        cond = self._expr(s.cond)
        then = self._stmt(s.then)
        other = self._stmt(s.other)

        def if_stmt(env):
            tick()
            if cond(env):
                return then(env)
            return other(env)

        return if_stmt

    def _build_for(self, s: ForStmt) -> Code:
        tick = self._tick(s)
        init = self._stmt(s.init)
        cond = self._expr(s.cond) if s.cond is not None else None
        inc = self._expr(s.inc) if s.inc is not None else None
        body = self._stmt(s.body)

        def for_stmt(env):
            tick()
            inner = Environment(env)
            r = init(inner)
            if r is not None:
                return r
            while cond is None or cond(inner):
                try:
                    r = body(inner)
                except _Break:
                    break
                except _Continue:
                    r = None
                if r is not None:
                    if r is _BREAK:
                        break
                    if r is not _CONTINUE:
                        return r
                if inc is not None:
                    inc(inner)
            return None

        return for_stmt

    def _build_while(self, s: WhileStmt) -> Code:
        tick = self._tick(s)
        cond = self._expr(s.cond)
        body = self._stmt(s.body)

        def while_stmt(env):
            tick()
            while cond(env):
                try:
                    r = body(env)
                except _Break:
                    break
                except _Continue:
                    continue
                if r is not None:
                    if r is _BREAK:
                        break
                    if r is not _CONTINUE:
                        return r
            return None

        return while_stmt

    def _build_do(self, s: DoStmt) -> Code:
        tick = self._tick(s)
        cond = self._expr(s.cond)
        body = self._stmt(s.body)

        def do_stmt(env):
            tick()
            while True:
                try:
                    r = body(env)
                except _Break:
                    break
                except _Continue:
                    r = None
                if r is not None:
                    if r is _BREAK:
                        break
                    if r is not _CONTINUE:
                        return r
                if not cond(env):
                    break
            return None

        return do_stmt

    def _build_return(self, s: ReturnStmt) -> Code:
        tick = self._tick(s)
        value = self._expr(s.value)

        def return_stmt(env):
            tick()
            return (value(env),)

        return return_stmt

    def _build_break(self, s: BreakStmt) -> Code:
        tick = self._tick(s)

        def break_stmt(env):
            tick()
            return _BREAK

        return break_stmt

    def _build_continue(self, s: ContinueStmt) -> Code:
        tick = self._tick(s)

        def continue_stmt(env):
            tick()
            return _CONTINUE

        return continue_stmt

    def _build_pragma(self, s: PragmaStmt) -> Code:
        # serial semantics: run the structured block on one thread
        tick = self._tick(s)
        body = self._stmt(s.body)

        def pragma_stmt(env):
            tick()
            return body(env)

        return pragma_stmt

    # -- expressions --------------------------------------------------------------
    def _build_expr(self, e: Expr) -> Code:
        build = _EXPR_TRANSLATORS.get(type(e))
        if build is None:
            msg = f"cannot evaluate {type(e).__name__}"

            def unknown(env):
                raise InterpreterError(msg)

            return unknown
        return build(self, e)

    def _build_literal(self, e: LiteralExpr) -> Code:
        value = _constant(e)
        if value is _VARIABLE:  # malformed (0x): fails when, and only if, evaluated
            return lambda env: _literal_value(e)
        return lambda env: value

    def _build_ident(self, e: IdentExpr) -> Code:
        # Qualified names (std::execution::par_unseq, cudaMemcpyHostToDevice)
        # prefer intrinsic constants over header placeholder globals.
        full = e.name
        const = self.intrinsics.constant(full)
        if len(e.parts) > 1 and const is not None:
            return lambda env: const
        name = e.parts[-1] if e.parts else ""
        fn = self._function_named(full)

        def fallback() -> Any:
            if const is not None:
                return const
            if fn is not None and fn.body is not None:
                return fn
            raise InterpreterError(f"undefined identifier {full!r}")

        if name == full:

            def ident(env):
                # Environment.lookup, inlined: the hottest read of a run
                while env is not None:
                    c = env.vars.get(name)
                    if c is not None:
                        return c.value
                    env = env.parent
                return fallback()

            return ident

        def qualified_ident(env):
            c = env.lookup(name)
            if c is None:
                c = env.lookup(full)
            if c is not None:
                return c.value
            return fallback()

        return qualified_ident

    def _build_binary(self, e: BinaryExpr) -> Code:
        op = e.op
        lhs = self._expr(e.lhs)
        rhs = self._expr(e.rhs)
        if op == "&&":
            return lambda env: bool(lhs(env)) and bool(rhs(env))
        if op == "||":
            return lambda env: bool(lhs(env)) or bool(rhs(env))
        if op == ",":

            def comma(env):
                lhs(env)
                return rhs(env)

            return comma
        c = _constant(e.rhs)
        if op in ("+", "-"):
            fn = _NUM_OPS[op]
            plus = op == "+"
            if c is not _VARIABLE:

                def additive_const(env):
                    a = lhs(env)
                    if isinstance(a, Pointer):
                        return _pointer_step(a, c, plus)
                    return fn(a, c)

                return additive_const

            def additive(env):
                a = lhs(env)
                b = rhs(env)
                if isinstance(a, Pointer):
                    return _pointer_step(a, b, plus)
                return fn(a, b)

            return additive
        if op == "/":

            def divide(env):
                a = lhs(env)
                b = rhs(env)
                if isinstance(a, int) and isinstance(b, int):
                    return a // b if b else 0
                return a / b if b else float("inf")

            return divide
        fn = _NUM_OPS.get(op)
        if fn is None:
            msg = f"unsupported binary op {op!r}"

            def unsupported(env):
                lhs(env)
                rhs(env)
                raise InterpreterError(msg)

            return unsupported
        if c is not _VARIABLE:
            return lambda env: fn(lhs(env), c)
        c = _constant(e.lhs)
        if c is not _VARIABLE:
            return lambda env: fn(c, rhs(env))
        return lambda env: fn(lhs(env), rhs(env))

    def _build_unary(self, e: UnaryExpr) -> Code:
        op = e.op
        if op == "&":
            return self._address(e.operand)
        if op in ("++", "--"):
            return self._step_code(e)
        operand = self._expr(e.operand)
        if op == "*":

            def deref(env):
                v = operand(env)
                if isinstance(v, Pointer):
                    return v.load(0)
                if isinstance(v, Cell):
                    return v.value
                raise InterpreterError("dereference of non-pointer")

            return deref
        if op == "-":
            return lambda env: -operand(env)
        if op == "+":
            return operand
        if op == "!":
            return lambda env: not operand(env)
        if op == "~":
            return lambda env: ~int(operand(env))
        msg = f"unsupported unary op {op!r}"

        def unsupported(env):
            operand(env)
            raise InterpreterError(msg)

        return unsupported

    def _step_code(self, e: UnaryExpr) -> Code:
        """``++x`` / ``x--``: pointers step by elements, numbers by one."""
        delta = 1 if e.op == "++" else -1
        prefix = e.prefix

        def step(cur):
            return cur.add(delta) if isinstance(cur, Pointer) else cur + delta

        if isinstance(e.operand, IdentExpr):
            name = e.operand.parts[-1]
            undefined = f"undefined identifier {e.operand.name!r}"

            def step_var(env):
                c = env.lookup(name)
                if c is None:
                    raise InterpreterError(undefined)
                cur = c.value
                c.value = nxt = step(cur)
                return nxt if prefix else cur

            return step_var
        slot_of = self._lvalue(e.operand)

        def step_slot(env):
            slot = slot_of(env)
            cur = _slot_load(slot)
            nxt = step(cur)
            _slot_store(slot, nxt)
            return nxt if prefix else cur

        return step_slot

    def _build_assign(self, e: AssignExpr) -> Code:
        rhs = self._expr(e.rhs)
        combine = None if e.op == "=" else _combine(e.op)
        if isinstance(e.lhs, IdentExpr):
            name = e.lhs.parts[-1]
            undefined = f"undefined identifier {e.lhs.name!r}"

            def assign_var(env):
                c = env.lookup(name)
                if c is None:
                    raise InterpreterError(undefined)
                if combine is None:
                    val = rhs(env)
                else:
                    cur = c.value
                    val = combine(cur, rhs(env))
                c.value = val
                return val

            return assign_var
        slot_of = self._lvalue(e.lhs)

        def assign_slot(env):
            slot = slot_of(env)
            if combine is None:
                val = rhs(env)
            else:
                cur = _slot_load(slot)
                val = combine(cur, rhs(env))
            _slot_store(slot, val)
            return val

        return assign_slot

    def _build_cond(self, e: CondExpr) -> Code:
        cond = self._expr(e.cond)
        then = self._expr(e.then)
        other = self._expr(e.other)
        return lambda env: then(env) if cond(env) else other(env)

    def _build_member(self, e: MemberExpr) -> Code:
        base_of = self._expr(e.base)
        member = e.member

        def member_value(env):
            base = base_of(env)
            if isinstance(base, StructVal):
                if member in base.fields:
                    return base.fields[member].value
                if member in base.payload:
                    return base.payload[member]
                return base.field_cell(member).value
            raise InterpreterError(f"member access on {type(base).__name__}: {member}")

        return member_value

    def _build_subscript(self, e: SubscriptExpr) -> Code:
        base_of = self._expr(e.base)
        index = self._expr(e.index)

        def subscript(env):
            base = base_of(env)
            idx = index(env)
            if isinstance(base, Pointer):
                return base.buffer.data[base.offset + int(idx)]
            return _slot_load(_index_slot(base, idx))

        return subscript

    def _build_lambda(self, e: LambdaExpr) -> Code:
        by_ref = "&" in (e.capture or "=")

        def make_lambda(env):
            this_cell = env.lookup("this")
            return Lambda(
                e, env if by_ref else env.snapshot(), this_cell.value if this_cell else None
            )

        return make_lambda

    def _build_cast(self, e: CastExpr) -> Code:
        operand = self._expr(e.operand)
        tname = e.type.base_name if e.type is not None else ""
        if tname in _INT_TYPES:
            return lambda env: int(operand(env))
        if tname in ("double", "float"):
            return lambda env: float(operand(env))
        if tname == "bool":
            return lambda env: bool(operand(env))
        return operand

    def _build_new(self, e: NewExpr) -> Code:
        if e.array_size is not None:
            size = self._expr(e.array_size)
            return lambda env: Pointer(Buffer(int(size(env))))
        args = [self._expr(a) for a in e.ctor_args]
        construct = self._constructor(e.type)
        return lambda env: construct([a(env) for a in args])

    def _build_delete(self, e: DeleteExpr) -> Code:
        operand = self._expr(e.operand)

        def delete(env):
            operand(env)

        return delete

    def _build_sizeof(self, e: SizeofExpr) -> Code:
        return lambda env: 8  # every scalar is a 64-bit slot in MiniC++

    def _build_init_list(self, e: InitListExpr) -> Code:
        items = [self._expr(x) for x in e.items]
        return lambda env: [item(env) for item in items]

    def _build_this(self, e: ThisExpr) -> Code:
        def this(env):
            c = env.lookup("this")
            return c.value if c else None

        return this

    # -- lvalues -------------------------------------------------------------------
    def _build_lvalue(self, e: Optional[Expr]) -> Code:
        if isinstance(e, IdentExpr):
            name = e.parts[-1]
            undefined = f"undefined identifier {e.name!r}"

            def var_slot(env):
                c = env.lookup(name)
                if c is None:
                    raise InterpreterError(undefined)
                return ("cell", c)

            return var_slot
        if isinstance(e, SubscriptExpr):
            base_of = self._expr(e.base)
            index = self._expr(e.index)
            return lambda env: _index_slot(base_of(env), index(env))
        if isinstance(e, MemberExpr):
            base_of = self._expr(e.base)
            member = e.member

            def member_slot(env):
                base = base_of(env)
                if isinstance(base, StructVal):
                    return ("cell", base.field_cell(member))
                raise InterpreterError(f"member store on non-struct: {member}")

            return member_slot
        if isinstance(e, UnaryExpr) and e.op == "*":
            operand = self._expr(e.operand)

            def deref_slot(env):
                v = operand(env)
                if isinstance(v, Pointer):
                    return ("ptr", v, 0)
                if isinstance(v, Cell):
                    return ("cell", v)
                raise InterpreterError("store through non-pointer")

            return deref_slot
        if isinstance(e, CallExpr):
            # functor element store: view(i) = x
            callee = self._expr(e.callee)
            args = [self._expr(a) for a in e.args]
            interp = self

            def element_slot(env):
                base = callee(env)
                idxs = [a(env) for a in args]
                if isinstance(base, StructVal) and "ptr" in base.payload:
                    return ("ptr", base.payload["ptr"], interp._flatten_index(base, idxs))
                raise InterpreterError("call expression is not assignable")

            return element_slot
        msg = f"not an lvalue: {type(e).__name__}"

        def not_lvalue(env):
            raise InterpreterError(msg)

        return not_lvalue

    def _build_address(self, e: Optional[Expr]) -> Code:
        slot_of = self._lvalue(e)

        def address(env):
            slot = slot_of(env)
            if slot[0] == "cell":
                return slot[1]
            if slot[0] == "ptr":
                return slot[1].add(slot[2])
            raise InterpreterError("cannot take address")

        return address

    # -- calls -----------------------------------------------------------------
    def _build_call(self, e: CallExpr) -> Code:
        tick = self._tick(e)
        callee = e.callee
        args = [self._expr(a) for a in e.args]
        interp = self
        if isinstance(callee, MemberExpr):
            return self._method_call(tick, callee, args)
        if not isinstance(callee, IdentExpr):
            # computed callee
            target = self._expr(callee)

            def call_computed(env):
                tick()
                fn = target(env)
                return interp.call_value(fn, [a(env) for a in args])

            return call_computed
        name = callee.name
        targs = [str(t) for t in e.template_args]
        fn = self._function_named(name)
        if fn is not None and fn.body is not None:
            params = self._arg_codes(fn, e.args)
            invoke = None

            def call_user(env):
                nonlocal invoke
                tick()
                vals = [a(env) for a in params]
                if invoke is None:  # translated on the first call, not before
                    invoke = interp._function(fn)
                return invoke(vals, None)

            return call_user
        special = self.intrinsics.special(name)
        if special is not None:
            arg_exprs = e.args

            def call_special(env):
                tick()
                return special(interp, env, targs, arg_exprs)

            return call_special
        intr = self.intrinsics.function(name) or self.intrinsics.ctor(name)
        if intr is not None:

            def call_intrinsic(env):
                tick()
                return intr(interp, targs, [a(env) for a in args])

            return call_intrinsic
        # user class constructor-expression: Foo(args)
        if name in self.sema.classes or _short(name) in self._class_shorts:
            construct = self._constructor(TypeRef(name=name.split("::")))

            def call_ctor(env):
                tick()
                return construct([a(env) for a in args])

            return call_ctor
        # local callable (lambda in a variable)
        short = _short(name)

        def call_local(env):
            tick()
            c = env.lookup(short)
            if c is not None:
                return interp.call_value(c.value, [a(env) for a in args])
            raise InterpreterError(f"call to unknown function {name!r}")

        return call_local

    def _arg_codes(self, fn: FunctionDecl, arg_exprs: list[Expr]) -> list[Code]:
        """Argument closures, passing Cells for reference parameters."""
        codes: list[Code] = []
        for p, a in zip(fn.params, arg_exprs):
            value = self._expr(a)
            if p.type is not None and p.type.is_ref and not p.type.is_const:
                codes.append(self._by_reference(self._address(a), value))
            else:
                codes.append(value)
        codes.extend(self._expr(a) for a in arg_exprs[len(fn.params) :])
        return codes

    @staticmethod
    def _by_reference(address: Code, value: Code) -> Code:
        def by_ref(env):
            try:
                return address(env)
            except InterpreterError:
                return value(env)

        return by_ref

    def _method_call(self, tick, callee: MemberExpr, args: list[Code]) -> Code:
        base_of = self._expr(callee.base)
        member = callee.member
        interp = self

        def call_method(env):
            tick()
            base = base_of(env)
            vals = [a(env) for a in args]
            if isinstance(base, StructVal):
                hit = interp.intrinsics.method(base.class_name, member)
                if hit is not None:
                    return hit(interp, base, vals)
                cls = interp._class_of(base.class_name)
                if cls is not None:
                    for m in cls.methods:
                        if m.name == member and m.body is not None:
                            return interp.call_function(m, vals, this=base)
                raise InterpreterError(f"no method {member!r} on {base.class_name}")
            if isinstance(base, Lambda) and member == "operator()":
                return interp.call_lambda(base, vals)
            raise InterpreterError(f"method call on non-struct {type(base).__name__}")

        return call_method

    def _build_launch(self, e: KernelLaunchExpr) -> Code:
        tick = self._tick(e)
        grid_of = self._expr(e.config[0]) if e.config else None
        block_of = self._expr(e.config[1]) if len(e.config) > 1 else None
        name = e.callee.name if isinstance(e.callee, IdentExpr) else ""
        fn = self._function_named(name)
        args = [self._expr(a) for a in e.args]
        interp = self

        def launch(env):
            tick()
            grid = int(grid_of(env)) if grid_of is not None else 1
            block = int(block_of(env)) if block_of is not None else 1
            if fn is None or fn.body is None:
                raise InterpreterError(f"launch of unknown kernel {name!r}")
            vals = [a(env) for a in args]
            kernel = interp._function(fn)
            for b in range(grid):
                for t in range(block):
                    kenv = Environment(interp.globals)
                    for var, x, yz in (
                        ("blockIdx", b, 0),
                        ("threadIdx", t, 0),
                        ("blockDim", block, 1),
                        ("gridDim", grid, 1),
                    ):
                        dim3 = {"x": Cell(x), "y": Cell(yz), "z": Cell(yz)}
                        kenv.define(var, StructVal("dim3", dim3))
                    saved = interp.globals
                    interp.globals = kenv
                    try:
                        kernel(vals, None)
                    finally:
                        interp.globals = saved
            return None

        return launch


#: AST node type -> its translator (the node classes form no hierarchy
#: below Stmt/Expr, so an exact-type table is the old isinstance chain)
_STMT_TRANSLATORS: dict[type, Callable] = {
    CompoundStmt: Interpreter._build_compound,
    ExprStmt: Interpreter._build_expr_stmt,
    DeclStmt: Interpreter._build_decl_stmt,
    IfStmt: Interpreter._build_if,
    ForStmt: Interpreter._build_for,
    WhileStmt: Interpreter._build_while,
    DoStmt: Interpreter._build_do,
    ReturnStmt: Interpreter._build_return,
    BreakStmt: Interpreter._build_break,
    ContinueStmt: Interpreter._build_continue,
    PragmaStmt: Interpreter._build_pragma,
}

_EXPR_TRANSLATORS: dict[type, Callable] = {
    LiteralExpr: Interpreter._build_literal,
    IdentExpr: Interpreter._build_ident,
    BinaryExpr: Interpreter._build_binary,
    AssignExpr: Interpreter._build_assign,
    UnaryExpr: Interpreter._build_unary,
    CondExpr: Interpreter._build_cond,
    CallExpr: Interpreter._build_call,
    KernelLaunchExpr: Interpreter._build_launch,
    MemberExpr: Interpreter._build_member,
    SubscriptExpr: Interpreter._build_subscript,
    LambdaExpr: Interpreter._build_lambda,
    CastExpr: Interpreter._build_cast,
    NewExpr: Interpreter._build_new,
    DeleteExpr: Interpreter._build_delete,
    SizeofExpr: Interpreter._build_sizeof,
    InitListExpr: Interpreter._build_init_list,
    ThisExpr: Interpreter._build_this,
}


def run_program(
    tu: TranslationUnit,
    sema: SemaResult,
    entry: str = "main",
    args: Optional[list[Any]] = None,
) -> ExecutionResult:
    """Interpret ``entry`` (default ``main``) and return the result/profile."""
    interp = Interpreter(tu, sema)
    try:
        return interp.run(entry, args)
    finally:
        # the cached closures capture the interpreter: break that cycle, so
        # the run is freed when it returns, not by a later full collection
        interp._code.clear()
