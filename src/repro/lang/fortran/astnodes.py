"""MiniFortran AST node definitions."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.trees.node import SourceSpan


@dataclass
class FtNode:
    span: Optional[SourceSpan] = field(default=None, kw_only=True)


# -- expressions -------------------------------------------------------------


@dataclass
class FtExpr(FtNode):
    pass


@dataclass
class FtIdent(FtExpr):
    name: str = ""


@dataclass
class FtLiteral(FtExpr):
    kind: str = "int"  # int | real | string | logical
    value: str = ""


@dataclass
class FtBinOp(FtExpr):
    op: str = "+"
    lhs: Optional[FtExpr] = None
    rhs: Optional[FtExpr] = None


@dataclass
class FtUnOp(FtExpr):
    op: str = "-"
    operand: Optional[FtExpr] = None


@dataclass
class FtRange(FtExpr):
    """Array-section bound ``lo:hi[:step]``; bare ``:`` has both None."""

    lo: Optional[FtExpr] = None
    hi: Optional[FtExpr] = None
    step: Optional[FtExpr] = None


@dataclass
class FtCallOrIndex(FtExpr):
    """``name(args)`` — function reference or array element/section.

    Fortran cannot distinguish these syntactically; ``is_index`` is set
    during the parser's declaration-table pass.
    """

    name: str = ""
    args: list[FtExpr] = field(default_factory=list)
    is_index: Optional[bool] = None


# -- statements ---------------------------------------------------------------


@dataclass
class FtStmt(FtNode):
    pass


@dataclass
class FtDeclAttr(FtNode):
    name: str = ""
    args: list[str] = field(default_factory=list)


@dataclass
class FtDecl(FtStmt):
    """Type declaration statement: ``real(kind=8), allocatable :: a(:), b``."""

    base_type: str = "real"
    kind: Optional[str] = None
    attrs: list[FtDeclAttr] = field(default_factory=list)
    entities: list[tuple[str, list[FtExpr], Optional[FtExpr]]] = field(
        default_factory=list
    )  # (name, dims, init)


@dataclass
class FtImplicitNone(FtStmt):
    pass


@dataclass
class FtUse(FtStmt):
    module: str = ""
    only: list[str] = field(default_factory=list)


@dataclass
class FtAssign(FtStmt):
    lhs: Optional[FtExpr] = None
    rhs: Optional[FtExpr] = None


@dataclass
class FtCallStmt(FtStmt):
    name: str = ""
    args: list[FtExpr] = field(default_factory=list)


@dataclass
class FtPrint(FtStmt):
    items: list[FtExpr] = field(default_factory=list)


@dataclass
class FtAllocate(FtStmt):
    items: list[FtCallOrIndex] = field(default_factory=list)
    dealloc: bool = False


@dataclass
class FtDo(FtStmt):
    var: str = ""
    lo: Optional[FtExpr] = None
    hi: Optional[FtExpr] = None
    step: Optional[FtExpr] = None
    body: list[FtStmt] = field(default_factory=list)


@dataclass
class FtDoConcurrent(FtStmt):
    """``do concurrent (i = lo:hi)`` — the StdPar-of-Fortran (paper §V-B)."""

    var: str = ""
    lo: Optional[FtExpr] = None
    hi: Optional[FtExpr] = None
    body: list[FtStmt] = field(default_factory=list)


@dataclass
class FtWhile(FtStmt):
    cond: Optional[FtExpr] = None
    body: list[FtStmt] = field(default_factory=list)


@dataclass
class FtIf(FtStmt):
    cond: Optional[FtExpr] = None
    then: list[FtStmt] = field(default_factory=list)
    elifs: list[tuple[FtExpr, list[FtStmt]]] = field(default_factory=list)
    other: list[FtStmt] = field(default_factory=list)


@dataclass
class FtReturn(FtStmt):
    pass


@dataclass
class FtStop(FtStmt):
    code: Optional[FtExpr] = None


@dataclass
class FtExitCycle(FtStmt):
    kind: str = "exit"  # exit | cycle


@dataclass
class FtError(FtStmt):
    """Placeholder emitted by panic-mode recovery for an unparseable
    statement. Converts to an ordinary ``error-node`` leaf in all tree
    views so degraded trees stay TED-comparable (DESIGN.md)."""

    message: str = ""


@dataclass
class FtDirective(FtStmt):
    """``!$omp`` / ``!$acc`` sentinel directive with optional attached body.

    ``is_end`` marks ``!$omp end …`` closers (consumed during attachment).
    """

    family: str = "omp"
    directives: list[str] = field(default_factory=list)
    clauses: list[tuple[str, list[str]]] = field(default_factory=list)
    body: list[FtStmt] = field(default_factory=list)
    is_end: bool = False


# -- program units ---------------------------------------------------------------


@dataclass
class FtUnit(FtNode):
    kind: str = "program"  # program | module | subroutine | function
    name: str = ""
    params: list[str] = field(default_factory=list)
    result: Optional[str] = None
    decls: list[FtStmt] = field(default_factory=list)
    body: list[FtStmt] = field(default_factory=list)
    contains: list["FtUnit"] = field(default_factory=list)


@dataclass
class FtFile(FtNode):
    path: str = "<memory>"
    units: list[FtUnit] = field(default_factory=list)
