"""MiniFortran AST → ``T_sem`` tree (GENERIC/GIMPLE-frontend analogue).

All labels carry an ``ft-`` prefix: Fortran semantic trees live in a
different label namespace than MiniC++ trees, reproducing the paper's
"cross-compiler comparison is not possible" property for ``T_sem``.

The OpenACC finding of §V-B falls out of the directive handling: a GCC
OpenACC directive whose lowering is a single-threaded fallback still
contributes its directive node here (the *source* said something), but the
``T_ir`` lowering adds almost nothing — which is exactly the mismatch the
paper observed.
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
from repro.trees.node import Node


def fortran_to_tree(f: FtFile) -> Node:
    root = Node("ft-file", "tu", None, None, {"path": f.path})
    for u in f.units:
        root.add(_unit(u))
    return root


def _unit(u: FtUnit) -> Node:
    n = Node(u.name, "fn" if u.kind in ("subroutine", "function") else "module", None, u.span, {"unit_kind": u.kind})
    n.add(Node(f"ft-{u.kind}", "unit-kind", None, u.span))
    for p in u.params:
        n.add(Node(p, "param", None, u.span))
    if u.result:
        n.add(Node("ft-result", "result", [Node(u.result, "var", None, u.span)], u.span))
    body = Node("ft-body", "stmt", [_stmt(s) for s in u.body], u.span)
    n.add(body)
    for sub in u.contains:
        n.add(_unit(sub))
    return n


def _stmt(s: FtStmt) -> Node:
    if isinstance(s, FtError):
        # Recovery placeholder: an ordinary labelled leaf, so degraded trees
        # stay TED-comparable (DESIGN.md, error-node contract).
        return Node("error-node", "error", None, s.span)
    if isinstance(s, FtDecl):
        n = Node(f"ft-decl:{s.base_type}", "stmt", None, s.span, {"kind": s.kind or ""})
        for a in s.attrs:
            n.add(Node(f"ft-attr:{a.name}", "decl-attr", None, s.span))
        for name, dims, init in s.entities:
            kids = [_expr(d) for d in dims]
            if init is not None:
                kids.append(Node("ft-init", "init", [_expr(init)], s.span))
            en = Node(name, "var", kids, s.span)
            n.add(en)
        return n
    if isinstance(s, FtImplicitNone):
        return Node("ft-implicit-none", "stmt", None, s.span)
    if isinstance(s, FtUse):
        return Node("ft-use", "stmt", [Node(s.module, "module", None, s.span)], s.span)
    if isinstance(s, FtAssign):
        label = "ft-array-assign" if _is_array_expr(s.lhs) else "ft-assign"
        return Node(label, "assign", [_expr(s.lhs), _expr(s.rhs)], s.span)
    if isinstance(s, FtCallStmt):
        return Node(s.name, "call", [_expr(a) for a in s.args], s.span)
    if isinstance(s, FtPrint):
        return Node("ft-print", "stmt", [_expr(e) for e in s.items], s.span)
    if isinstance(s, FtAllocate):
        label = "ft-deallocate" if s.dealloc else "ft-allocate"
        return Node(label, "alloc", [_expr(i) for i in s.items], s.span)
    if isinstance(s, FtDo):
        kids = [
            Node(s.var, "var", None, s.span),
            _expr(s.lo),
            _expr(s.hi),
        ]
        if s.step is not None:
            kids.append(_expr(s.step))
        kids.append(Node("ft-body", "stmt", [_stmt(x) for x in s.body], s.span))
        return Node("ft-do", "stmt", kids, s.span)
    if isinstance(s, FtDoConcurrent):
        kids = [
            Node(s.var, "var", None, s.span),
            _expr(s.lo),
            _expr(s.hi),
            Node("ft-body", "stmt", [_stmt(x) for x in s.body], s.span),
        ]
        # do concurrent is a *language-level* parallel construct: dedicated
        # semantic token, like OpenMP pragma nodes on the C++ side.
        return Node("ft-do-concurrent", "parallel-construct", kids, s.span)
    if isinstance(s, FtWhile):
        return Node(
            "ft-do-while",
            "stmt",
            [_expr(s.cond), Node("ft-body", "stmt", [_stmt(x) for x in s.body], s.span)],
            s.span,
        )
    if isinstance(s, FtIf):
        kids = [_expr(s.cond), Node("ft-then", "stmt", [_stmt(x) for x in s.then], s.span)]
        for c, blk in s.elifs:
            kids.append(
                Node("ft-elseif", "stmt", [_expr(c)] + [_stmt(x) for x in blk], s.span)
            )
        if s.other:
            kids.append(Node("ft-else", "stmt", [_stmt(x) for x in s.other], s.span))
        return Node("ft-if", "stmt", kids, s.span)
    if isinstance(s, FtReturn):
        return Node("ft-return", "stmt", None, s.span)
    if isinstance(s, FtStop):
        kids = [_expr(s.code)] if s.code is not None else []
        return Node("ft-stop", "stmt", kids, s.span)
    if isinstance(s, FtExitCycle):
        return Node(f"ft-{s.kind}", "stmt", None, s.span)
    if isinstance(s, FtDirective):
        label = f"ft-{s.family}-{'-'.join(s.directives)}" if s.directives else f"ft-{s.family}"
        n = Node(label, f"{s.family}-directive", None, s.span)
        dirs = set(s.directives)
        for cname, args in s.clauses:
            cn = Node(f"clause:{cname}", f"{s.family}-clause", None, s.span)
            for a in args:
                cn.add(Node(a, "clause-arg", None, s.span))
            if cname == "reduction":
                for a in args:
                    cn.add(Node("reduction-init", f"{s.family}-implicit", None, s.span))
                    cn.add(Node("reduction-combine", f"{s.family}-implicit", None, s.span))
            n.add(cn)
        # Implicit semantics: GCC's GIMPLE carries OpenMP tokens too (§V-C);
        # OpenACC under GCC adds almost nothing (the §V-B QoI finding), so
        # acc directives contribute only their surface nodes.
        implicit: list[str] = []
        if s.family == "omp":
            if "parallel" in dirs:
                implicit += ["thread-team", "implicit-barrier", "data-sharing"]
            if "do" in dirs or "distribute" in dirs:
                implicit += ["iteration-space", "loop-schedule"]
            if "simd" in dirs:
                implicit += ["simd-lanes"]
            if "target" in dirs:
                implicit += ["device-data-environment", "target-task", "host-device-mapping"]
            if "teams" in dirs:
                implicit += ["league-of-teams"]
            if "task" in dirs or "taskloop" in dirs:
                implicit += ["task-data-environment", "implicit-taskgroup"]
        for name in implicit:
            n.add(Node(name, f"{s.family}-implicit", None, s.span))
        if s.body:
            captured = Node("captured-stmt", f"{s.family}-captured", [_stmt(b) for b in s.body], s.span)
            n.add(captured)
        return n
    return Node(type(s).__name__, "stmt", None, s.span)


def _is_array_expr(e: Optional[FtExpr]) -> bool:
    if isinstance(e, FtCallOrIndex):
        return bool(e.is_index) and any(isinstance(a, FtRange) for a in e.args)
    return False


def _expr(e: Optional[FtExpr]) -> Node:
    if e is None:
        return Node("ft-null", "expr")
    if isinstance(e, FtIdent):
        return Node(e.name, "var", None, e.span)
    if isinstance(e, FtLiteral):
        return Node(e.value, "lit", None, e.span, {"lit_kind": e.kind})
    if isinstance(e, FtBinOp):
        return Node(f"ft-binop:{e.op}", "binop", [_expr(e.lhs), _expr(e.rhs)], e.span)
    if isinstance(e, FtUnOp):
        return Node(f"ft-unop:{e.op}", "unop", [_expr(e.operand)], e.span)
    if isinstance(e, FtRange):
        kids = [_expr(e.lo) if e.lo else Node("ft-lbound", "expr"),
                _expr(e.hi) if e.hi else Node("ft-ubound", "expr")]
        if e.step is not None:
            kids.append(_expr(e.step))
        return Node("ft-section", "expr", kids, e.span)
    if isinstance(e, FtCallOrIndex):
        if e.is_index:
            return Node("ft-index", "expr", [Node(e.name, "var", None, e.span)] + [_expr(a) for a in e.args], e.span)
        return Node(e.name, "call", [_expr(a) for a in e.args], e.span)
    return Node(type(e).__name__, "expr", None, e.span)
