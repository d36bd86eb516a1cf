"""MiniFortran AST interpreter.

Serial reference semantics for the Fortran corpus: ``do`` / ``do
concurrent`` loops iterate sequentially, whole-array and section
assignments evaluate elementwise, directives run their bodies inline, and
the intrinsics BabelStream-Fortran needs (``sum``, ``dot_product``,
``abs``, …) are built in. Executed statements record line coverage, so the
Fortran ``+coverage`` metric variants come from real runs exactly like the
C++ side.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.lang.fortran.astnodes import (
    FtAllocate,
    FtAssign,
    FtBinOp,
    FtCallOrIndex,
    FtCallStmt,
    FtDecl,
    FtDirective,
    FtDo,
    FtDoConcurrent,
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
from repro.util.errors import InterpreterError


class _Stop(Exception):
    def __init__(self, code: int):
        self.code = code


class _Return(Exception):
    pass


class _Exit(Exception):
    pass


class _Cycle(Exception):
    pass


@dataclass
class FtExecutionResult:
    """Outcome of one interpreted Fortran run."""

    value: int
    coverage: Counter = field(default_factory=Counter)
    stdout: list[str] = field(default_factory=list)
    steps: int = 0


class _Array:
    """A 1-based Fortran array (the corpus uses rank-1 arrays)."""

    __slots__ = ("data",)

    def __init__(self, n: int):
        self.data = [0.0] * n

    def get(self, i: int) -> Any:
        return self.data[i - 1]

    def set(self, i: int, v: Any) -> None:
        self.data[i - 1] = v

    def __len__(self) -> int:
        return len(self.data)


_INTRINSICS_1 = {
    "abs": abs,
    "sqrt": math.sqrt,
    "exp": math.exp,
    "log": math.log,
    "sin": math.sin,
    "cos": math.cos,
    "int": int,
    "real": float,
}


class FortranInterpreter:
    MAX_STEPS = 10_000_000

    def __init__(self, f: FtFile):
        self.file = f
        self.coverage: Counter = Counter()
        self.stdout: list[str] = []
        self.steps = 0
        self.scalars: dict[str, Any] = {}
        self.arrays: dict[str, _Array] = {}
        self.subs: dict[str, FtUnit] = {}

    # -- bookkeeping --------------------------------------------------------
    def record(self, node) -> None:
        span = getattr(node, "span", None)
        if span is not None:
            self.coverage[(span.file, span.line_start)] += 1
        self.steps += 1
        if self.steps > self.MAX_STEPS:
            raise InterpreterError("fortran execution fuel exhausted")

    # -- entry ----------------------------------------------------------------
    def run(self) -> FtExecutionResult:
        program = next((u for u in self.file.units if u.kind == "program"), None)
        if program is None:
            raise InterpreterError("no program unit to run")
        for u in self.file.units:
            for sub in u.contains:
                self.subs[sub.name.lower()] = sub
            if u.kind in ("subroutine", "function"):
                self.subs[u.name.lower()] = u
        code = 0
        try:
            for s in program.body:
                self.stmt(s)
        except _Stop as st:
            code = st.code
        return FtExecutionResult(code, self.coverage, self.stdout, self.steps)

    # -- statements ---------------------------------------------------------------
    def stmt(self, s: FtStmt) -> None:
        self.record(s)
        if isinstance(s, (FtImplicitNone, FtUse)):
            return
        if isinstance(s, FtDecl):
            self.exec_decl(s)
        elif isinstance(s, FtAllocate):
            for item in s.items:
                if s.dealloc:
                    self.arrays.pop(item.name.lower(), None)
                else:
                    n = int(self.expr(item.args[0])) if item.args else 0
                    self.arrays[item.name.lower()] = _Array(n)
        elif isinstance(s, FtAssign):
            self.exec_assign(s)
        elif isinstance(s, FtDo):
            lo = int(self.expr(s.lo))
            hi = int(self.expr(s.hi))
            step = int(self.expr(s.step)) if s.step is not None else 1
            var = s.var.lower()
            i = lo
            while (step > 0 and i <= hi) or (step < 0 and i >= hi):
                self.scalars[var] = i
                try:
                    for st in s.body:
                        self.stmt(st)
                except _Cycle:
                    pass
                except _Exit:
                    break
                i += step
        elif isinstance(s, FtDoConcurrent):
            lo = int(self.expr(s.lo))
            hi = int(self.expr(s.hi))
            var = s.var.lower()
            for i in range(lo, hi + 1):
                self.scalars[var] = i
                for st in s.body:
                    self.stmt(st)
        elif isinstance(s, FtWhile):
            while self.truthy(self.expr(s.cond)):
                try:
                    for st in s.body:
                        self.stmt(st)
                except _Cycle:
                    continue
                except _Exit:
                    break
        elif isinstance(s, FtIf):
            if self.truthy(self.expr(s.cond)):
                for st in s.then:
                    self.stmt(st)
                return
            for cond, blk in s.elifs:
                if self.truthy(self.expr(cond)):
                    for st in blk:
                        self.stmt(st)
                    return
            for st in s.other:
                self.stmt(st)
        elif isinstance(s, FtPrint):
            self.stdout.append(" ".join(str(self.expr(e)) for e in s.items))
        elif isinstance(s, FtStop):
            raise _Stop(int(self.expr(s.code)) if s.code is not None else 0)
        elif isinstance(s, FtReturn):
            raise _Return()
        elif isinstance(s, FtExitCycle):
            raise _Exit() if s.kind == "exit" else _Cycle()
        elif isinstance(s, FtCallStmt):
            self.call_subroutine(s)
        elif isinstance(s, FtDirective):
            # serial semantics: directives run their structured block inline
            for st in s.body:
                self.stmt(st)

    def exec_decl(self, s: FtDecl) -> None:
        has_dim = any(a.name in ("dimension", "allocatable") for a in s.attrs)
        for name, dims, init in s.entities:
            low = name.lower()
            if init is not None and not dims and not has_dim:
                self.scalars[low] = self.expr(init)
            elif dims and not has_dim and not isinstance(dims[0], FtRange):
                # explicit-shape local: real :: grid(64)
                try:
                    n = int(self.expr(dims[0]))
                    self.arrays[low] = _Array(n)
                except InterpreterError:
                    self.scalars.setdefault(low, 0.0)
            else:
                if not has_dim:
                    self.scalars.setdefault(low, 0.0)
                # allocatable arrays materialise at allocate()

    # -- assignment -----------------------------------------------------------
    def exec_assign(self, s: FtAssign) -> None:
        lhs = s.lhs
        if isinstance(lhs, FtIdent):
            low = lhs.name.lower()
            if low in self.arrays:
                self._array_assign(self.arrays[low], s.rhs)
            else:
                self.scalars[low] = self.expr(s.rhs)
            return
        if isinstance(lhs, FtCallOrIndex):
            arr = self.arrays.get(lhs.name.lower())
            if arr is None:
                raise InterpreterError(f"assignment to unknown array {lhs.name!r}")
            if lhs.args and not isinstance(lhs.args[0], FtRange):
                arr.set(int(self.expr(lhs.args[0])), self.expr(s.rhs))
            else:
                self._array_assign(arr, s.rhs)
            return
        raise InterpreterError("unsupported assignment target")

    def _array_assign(self, arr: _Array, rhs: FtExpr) -> None:
        """Elementwise evaluation of a whole-array/section assignment."""
        for k in range(1, len(arr) + 1):
            arr.set(k, self.expr(rhs, elem=k))

    # -- subroutines --------------------------------------------------------------
    def call_subroutine(self, s: FtCallStmt) -> None:
        sub = self.subs.get(s.name.lower())
        if sub is None:
            raise InterpreterError(f"call to unknown subroutine {s.name!r}")
        # corpus subroutines share the program's variables (host association
        # approximation); positional args bind scalar values by name
        saved = {}
        for pname, arg in zip(sub.params, s.args):
            low = pname.lower()
            saved[low] = self.scalars.get(low)
            self.scalars[low] = self.expr(arg)
        try:
            for st in sub.body:
                self.stmt(st)
        except _Return:
            pass
        for low, old in saved.items():
            if old is None:
                self.scalars.pop(low, None)
            else:
                self.scalars[low] = old

    # -- expressions --------------------------------------------------------------
    def truthy(self, v: Any) -> bool:
        return bool(v)

    def expr(self, e: Optional[FtExpr], elem: Optional[int] = None) -> Any:
        if e is None:
            return 0
        if isinstance(e, FtLiteral):
            if e.kind == "int":
                return int(e.value)
            if e.kind == "real":
                text = e.value.lower().replace("d", "e").split("_")[0]
                return float(text)
            if e.kind == "logical":
                return e.value == ".true."
            return e.value.strip("'\"")
        if isinstance(e, FtIdent):
            low = e.name.lower()
            if low in self.scalars:
                return self.scalars[low]
            if low in self.arrays:
                arr = self.arrays[low]
                if elem is not None:
                    return arr.get(elem)
                return arr
            raise InterpreterError(f"undefined name {e.name!r}")
        if isinstance(e, FtBinOp):
            a = self.expr(e.lhs, elem)
            b = self.expr(e.rhs, elem)
            return self._binop(e.op, a, b)
        if isinstance(e, FtUnOp):
            v = self.expr(e.operand, elem)
            if e.op == "-":
                return -v
            if e.op == ".not.":
                return not v
            return v
        if isinstance(e, FtCallOrIndex):
            return self._call_or_index(e, elem)
        if isinstance(e, FtRange):
            raise InterpreterError("bare section outside array context")
        raise InterpreterError(f"cannot evaluate {type(e).__name__}")

    @staticmethod
    def _binop(op: str, a: Any, b: Any) -> Any:
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            return a / b if not (isinstance(a, int) and isinstance(b, int)) else a // b
        if op == "**":
            return a**b
        if op in ("==", ".eq."):
            return a == b
        if op in ("/=", ".ne."):
            return a != b
        if op in ("<", ".lt."):
            return a < b
        if op in ("<=", ".le."):
            return a <= b
        if op in (">", ".gt."):
            return a > b
        if op in (">=", ".ge."):
            return a >= b
        if op == ".and.":
            return bool(a) and bool(b)
        if op == ".or.":
            return bool(a) or bool(b)
        if op == ".eqv.":
            return bool(a) == bool(b)
        if op == ".neqv.":
            return bool(a) != bool(b)
        raise InterpreterError(f"unsupported operator {op!r}")

    def _call_or_index(self, e: FtCallOrIndex, elem: Optional[int]) -> Any:
        low = e.name.lower()
        if e.is_index or low in self.arrays:
            arr = self.arrays.get(low)
            if arr is None:
                raise InterpreterError(f"unknown array {e.name!r}")
            if e.args and not isinstance(e.args[0], FtRange):
                return arr.get(int(self.expr(e.args[0], elem)))
            # section a(:) in elementwise context
            if elem is not None:
                return arr.get(elem)
            return arr
        # intrinsics
        if low in _INTRINSICS_1:
            return _INTRINSICS_1[low](self.expr(e.args[0], elem))
        if low == "mod":
            return self.expr(e.args[0], elem) % self.expr(e.args[1], elem)
        if low in ("max", "min"):
            vals = [self.expr(a, elem) for a in e.args]
            return max(vals) if low == "max" else min(vals)
        if low == "sum":
            arr = self._whole_array(e.args[0])
            return sum(arr.data)
        if low == "dot_product":
            a = self._whole_array(e.args[0])
            b = self._whole_array(e.args[1])
            return sum(x * y for x, y in zip(a.data, b.data))
        if low in ("maxval", "minval"):
            arr = self._whole_array(e.args[0])
            return max(arr.data) if low == "maxval" else min(arr.data)
        if low == "size":
            return len(self._whole_array(e.args[0]))
        if low == "epsilon":
            return 2.220446049250313e-16
        if low == "huge":
            return 1.7976931348623157e308
        if low == "allocated":
            name = e.args[0].name.lower() if isinstance(e.args[0], FtIdent) else ""
            return name in self.arrays
        # user function
        sub = self.subs.get(low)
        if sub is not None and sub.kind == "function":
            saved = {}
            for pname, arg in zip(sub.params, e.args):
                p = pname.lower()
                saved[p] = self.scalars.get(p)
                self.scalars[p] = self.expr(arg, elem)
            result_name = (sub.result or sub.name).lower()
            try:
                for st in sub.body:
                    self.stmt(st)
            except _Return:
                pass
            out = self.scalars.get(result_name, 0.0)
            for p, old in saved.items():
                if old is None:
                    self.scalars.pop(p, None)
                else:
                    self.scalars[p] = old
            return out
        raise InterpreterError(f"unknown function or array {e.name!r}")

    def _whole_array(self, e: FtExpr) -> _Array:
        if isinstance(e, FtIdent) and e.name.lower() in self.arrays:
            return self.arrays[e.name.lower()]
        if isinstance(e, FtCallOrIndex) and e.name.lower() in self.arrays:
            return self.arrays[e.name.lower()]
        raise InterpreterError("expected a whole array argument")


def run_fortran(f: FtFile) -> FtExecutionResult:
    """Interpret the program unit of ``f`` and return result + coverage."""
    return FortranInterpreter(f).run()
