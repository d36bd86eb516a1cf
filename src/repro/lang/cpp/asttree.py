"""AST → ``T_sem`` tree conversion (the ClangAST-extraction analogue).

Produces the semantic-bearing tree of §III-A: node types, literals and
operator names are recorded; programmer-introduced names stay on the node
until the shared TED name normalisation erases them (they are preserved in
``attrs`` for tooling). Dialect semantics get dedicated node labels:

* OpenMP/OpenACC pragmas → ``omp-…``/``acc-…`` directive nodes with clause
  subtrees (the "unique AST tokens [that] possess semantic information
  above the laws of the host language" finding),
* CUDA/HIP launches → ``cuda-kernel-launch`` nodes, ``__global__`` etc. →
  attribute nodes,
* resolved calls into templated API surfaces → ``template-instantiation``
  subtrees carrying the callee signature, its default arguments included.
"""

from __future__ import annotations

from typing import Optional

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
    ThisExpr,
    TranslationUnit,
    TypedefDecl,
    TypeRef,
    UnaryExpr,
    UsingDecl,
    VarDecl,
    WhileStmt,
)
from repro.lang.cpp.sema import SemaResult
from repro.trees.node import Node

#: Cap on instantiation-signature expansion depth (guards mutual recursion
#: in header API surfaces).
_INST_DEPTH_LIMIT = 2


def ast_to_tree(tu: TranslationUnit, sema: Optional[SemaResult] = None) -> Node:
    """Convert a translation unit into its ``T_sem`` tree."""
    conv = _Converter(sema)
    root = Node("translation-unit", "tu", None, None, {"path": tu.path})
    for d in tu.decls:
        root.add(conv.decl(d))
    return root


def _respan(node: Node, span) -> Node:
    """Copy a subtree with every span replaced by the instantiation site.

    Template expansions belong to the *use* site, exactly as ClangAST
    attributes implicit instantiations to the expression that triggered
    them — and it keeps them visible after system-header masking.
    """
    return Node(
        node.label,
        node.kind,
        [_respan(c, span) for c in node.children],
        span,
        dict(node.attrs),
    )


class _Converter:
    def __init__(self, sema: Optional[SemaResult]):
        self.sema = sema

    # -- declarations ------------------------------------------------------
    def decl(self, d: Decl) -> Node:
        if isinstance(d, FunctionDecl):
            return self.function(d)
        if isinstance(d, ClassDecl):
            return self.klass(d)
        if isinstance(d, NamespaceDecl):
            n = Node(d.name or "<anon>", "module", None, d.span)
            for sub in d.decls:
                n.add(self.decl(sub))
            return n
        if isinstance(d, VarDecl):
            return self.var(d)
        if isinstance(d, UsingDecl):
            return Node("using", "using", None, d.span, {"text": d.text})
        if isinstance(d, TypedefDecl):
            n = Node(d.name, "type-name", None, d.span)
            if d.type is not None:
                n.add(self.type(d.type))
            return n
        if isinstance(d, PragmaDecl):
            return self.pragma_node(d.family, d.directives, d.clauses, None, d.span)
        if isinstance(d, ParamDecl):
            return self.param(d)
        if isinstance(d, ErrorDecl):
            # Ordinary labelled leaf: degraded trees stay TED-comparable
            # (DESIGN.md "Error-node semantics").
            return Node("error-node", "error", None, d.span)
        return Node(type(d).__name__, "decl", None, d.span)

    def function(self, d: FunctionDecl) -> Node:
        kind = "kernel" if d.is_kernel else "fn"
        n = Node(d.name, kind, None, d.span)
        for a in d.attrs:
            n.add(Node(f"attr:{a}", "attr", None, d.span))
        for tp in d.template_params:
            n.add(Node(f"tparam:{tp.kind}", "tparam", None, tp.span))
        if d.ret is not None:
            n.add(self.type(d.ret))
        for p in d.params:
            n.add(self.param(p))
        if d.body is not None:
            n.add(self.stmt(d.body))
        return n

    def param(self, p: ParamDecl) -> Node:
        n = Node(p.name or "param", "param", None, p.span)
        if p.type is not None:
            n.add(self.type(p.type))
        if p.default is not None:
            n.add(Node("default-arg", "default", [self.expr(p.default)], p.span))
        return n

    def klass(self, d: ClassDecl) -> Node:
        n = Node(d.name, "class", None, d.span, {"key": d.kind})
        for tp in d.template_params:
            n.add(Node(f"tparam:{tp.kind}", "tparam", None, tp.span))
        for b in d.bases:
            n.add(Node("base", "base", [self.type(b)], d.span))
        for f in d.fields:
            if f.name == "<error>":
                n.add(Node("error-node", "error", None, f.span))
                continue
            fn_ = Node(f.name, "field", None, f.span)
            if f.type is not None:
                fn_.add(self.type(f.type))
            if f.init is not None:
                fn_.add(self.expr(f.init))
            n.add(fn_)
        for m in d.methods:
            n.add(self.function(m))
        return n

    def var(self, d: VarDecl) -> Node:
        n = Node(d.name, "var", None, d.span)
        if d.type is not None:
            n.add(self.type(d.type))
        if d.init is not None:
            n.add(self.expr(d.init))
        for a in d.ctor_args or []:
            n.add(Node("ctor-arg", "ctor-arg", [self.expr(a)], d.span))
        # constructing a templated (system) type adds its instantiation
        if d.type is not None and d.type.template_args and self.sema is not None:
            hit = self.sema.classes.get(d.type.base_name)
            if hit is None:
                short = d.type.base_name.rsplit("::", 1)[-1]
                for q, c in self.sema.classes.items():
                    if q.rsplit("::", 1)[-1] == short:
                        hit = c
                        break
            if hit is not None and hit.template_params:
                n.add(self._class_instantiation(hit, d))
        return n

    def _class_instantiation(self, cls: ClassDecl, site: VarDecl) -> Node:
        """Signature-level expansion of a templated class at a declaration."""
        inst = Node("template-instantiation", "instantiation", None, site.span, {"of": cls.name})
        for tp in cls.template_params:
            inst.add(Node(f"tparam:{tp.kind}", "tparam", None, site.span))
        for m in cls.methods[:6]:  # signature surface, not the whole class
            sig = Node(m.name, "fn", None, site.span)
            if m.ret is not None:
                sig.add(_respan(self.type(m.ret), site.span))
            for p in m.params:
                sig.add(_respan(self.param(p), site.span))
            inst.add(sig)
        return inst

    # -- types ---------------------------------------------------------------
    def type(self, t: TypeRef) -> Node:
        n = Node(t.base_name or "type", "type-name", None, t.span)
        for a in t.template_args:
            if isinstance(a, TypeRef):
                n.add(self.type(a))
            else:
                n.add(self.expr(a))
        out = n
        for _ in range(t.pointer):
            out = Node("ptr", "type-op", [out], t.span)
        if t.is_ref:
            out = Node("ref", "type-op", [out], t.span)
        if t.is_const:
            out = Node("const", "type-op", [out], t.span)
        return out

    # -- statements ------------------------------------------------------------
    def stmt(self, s: Optional[Stmt]) -> Node:
        if s is None:
            return Node("null-stmt", "stmt")
        if isinstance(s, CompoundStmt):
            return Node("compound", "stmt", [self.stmt(x) for x in s.stmts], s.span)
        if isinstance(s, ExprStmt):
            if s.expr is None:
                return Node("empty-stmt", "stmt", None, s.span)
            return Node("expr-stmt", "stmt", [self.expr(s.expr)], s.span)
        if isinstance(s, DeclStmt):
            return Node("decl-stmt", "stmt", [self.var(v) for v in s.decls], s.span)
        if isinstance(s, IfStmt):
            kids = [self.expr(s.cond), self.stmt(s.then)]
            if s.other is not None:
                kids.append(self.stmt(s.other))
            return Node("if", "stmt", kids, s.span)
        if isinstance(s, ForStmt):
            kids = [
                self.stmt(s.init) if s.init else Node("null-init", "stmt"),
                self.expr(s.cond) if s.cond else Node("null-cond", "expr"),
                self.expr(s.inc) if s.inc else Node("null-inc", "expr"),
                self.stmt(s.body),
            ]
            return Node("for", "stmt", kids, s.span)
        if isinstance(s, WhileStmt):
            return Node("while", "stmt", [self.expr(s.cond), self.stmt(s.body)], s.span)
        if isinstance(s, DoStmt):
            return Node("do", "stmt", [self.stmt(s.body), self.expr(s.cond)], s.span)
        if isinstance(s, ReturnStmt):
            kids = [self.expr(s.value)] if s.value is not None else []
            return Node("return", "stmt", kids, s.span)
        if isinstance(s, BreakStmt):
            return Node("break", "stmt", None, s.span)
        if isinstance(s, ContinueStmt):
            return Node("continue", "stmt", None, s.span)
        if isinstance(s, PragmaStmt):
            return self.pragma_node(s.family, s.directives, s.clauses, s.body, s.span)
        if isinstance(s, ErrorStmt):
            return Node("error-node", "error", None, s.span)
        return Node(type(s).__name__, "stmt", None, s.span)

    def pragma_node(
        self,
        family: str,
        directives: list[str],
        clauses: list[PragmaClause],
        body: Optional[Stmt],
        span,
    ) -> Node:
        """Directive → semantic AST token with *implicit* semantic structure.

        ClangAST's OpenMP nodes carry far more than the pragma text: captured
        statements, implicit data-sharing, schedule/iteration-space
        modelling, reduction init/combine trees, device data environments.
        "The semantic meaning is ascribed in a way that is opaque in the
        source" (§V-C) — this is why OpenMP's ``T_sem`` divergence exceeds
        its ``T_src`` divergence, so we model those implicit nodes.
        """
        label = f"{family}-{'-'.join(directives)}" if directives else family
        n = Node(label, f"{family}-directive", None, span)
        dirs = set(directives)
        for c in clauses:
            cn = Node(f"clause:{c.name}", f"{family}-clause", None, c.span)
            for a in c.arguments:
                cn.add(Node(a, "clause-arg", None, c.span))
            if c.name == "reduction":
                for a in c.arguments:
                    cn.add(Node("reduction-init", f"{family}-implicit", None, c.span))
                    cn.add(Node("reduction-combine", f"{family}-implicit", None, c.span))
            if c.name.startswith("map") or c.name in ("copy", "copyin", "copyout", "to", "from"):
                for a in c.arguments:
                    cn.add(Node("mapper", f"{family}-implicit", None, c.span))
            n.add(cn)
        def imp(label: str, children: Optional[list[Node]] = None) -> Node:
            return Node(label, f"{family}-implicit", children, span)

        implicit: list[Node] = []
        if "parallel" in dirs:
            implicit += [
                imp("thread-team"),
                imp("implicit-barrier"),
                imp("data-sharing"),
                imp("omp-outlined-decl", [imp("outlined-tid-param"), imp("outlined-bound-param")]),
                imp("omp-captured-decl", [imp("captured-record")]),
            ]
        if "for" in dirs or "loop" in dirs or "distribute" in dirs:
            # Clang's OMPLoopDirective materialises the full loop-transform
            # helper set: each helper is itself an expression subtree.
            implicit.append(
                imp(
                    "iteration-space",
                    [
                        imp("omp-iv", [imp("iv-init")]),
                        imp("omp-lb", [imp("lb-expr")]),
                        imp("omp-ub", [imp("ub-expr")]),
                        imp("omp-stride", [imp("stride-expr")]),
                        imp("omp-lastiter"),
                        imp("omp-precond", [imp("precond-expr")]),
                    ],
                )
            )
            implicit.append(imp("loop-schedule", [imp("omp-chunk")]))
        if "simd" in dirs:
            implicit += [imp("simd-lanes"), imp("simd-aligned")]
        if "target" in dirs:
            implicit.append(
                imp("device-data-environment", [imp("omp-device-id"), imp("omp-offload-entry")])
            )
            implicit += [imp("target-task"), imp("host-device-mapping")]
        if "teams" in dirs:
            implicit.append(imp("league-of-teams", [imp("omp-num-teams"), imp("omp-thread-limit")]))
        if "task" in dirs or "taskloop" in dirs:
            implicit += [imp("task-data-environment"), imp("implicit-taskgroup"), imp("omp-task-alloc")]
        if family == "acc" and ("parallel" in dirs or "kernels" in dirs):
            implicit += [imp("gang-worker-vector"), imp("data-sharing")]
        for c in implicit:
            n.add(c)
        if body is not None:
            body_tree = self.stmt(body)
            captured = Node("captured-stmt", f"{family}-captured", [body_tree], span)
            # implicit data-sharing captures: one per distinct variable the
            # region references (Clang materialises these as implicit
            # firstprivate/shared DeclRefs plus their init expressions).
            if family == "omp":
                seen: set[str] = set()
                for node in body_tree.preorder():
                    if node.kind == "var":
                        name = node.attrs.get("name", node.label)
                        seen.add(name)
                for name in sorted(seen)[:8]:
                    captured.add(
                        Node(
                            "implicit-capture",
                            "omp-implicit",
                            [imp("capture-init")],
                            span,
                            {"name": name},
                        )
                    )
            n.add(captured)
        return n

    # -- expressions --------------------------------------------------------------
    def expr(self, e: Optional[Expr]) -> Node:
        if e is None:
            return Node("null-expr", "expr")
        if isinstance(e, LiteralExpr):
            return Node(e.value, "lit", None, e.span, {"lit_kind": e.kind})
        if isinstance(e, IdentExpr):
            if len(e.parts) > 1:
                return Node(e.name, "namespace-ref", None, e.span, {"parts": "::".join(e.parts)})
            return Node(e.name, "var", None, e.span)
        if isinstance(e, BinaryExpr):
            return Node(f"binop:{e.op}", "binop", [self.expr(e.lhs), self.expr(e.rhs)], e.span)
        if isinstance(e, AssignExpr):
            return Node(f"assign:{e.op}", "assign", [self.expr(e.lhs), self.expr(e.rhs)], e.span)
        if isinstance(e, UnaryExpr):
            pos = "pre" if e.prefix else "post"
            return Node(f"unop:{e.op}:{pos}", "unop", [self.expr(e.operand)], e.span)
        if isinstance(e, CondExpr):
            return Node(
                "cond-expr",
                "expr",
                [self.expr(e.cond), self.expr(e.then), self.expr(e.other)],
                e.span,
            )
        if isinstance(e, CallExpr):
            return self.call(e)
        if isinstance(e, KernelLaunchExpr):
            kids = [self.expr(e.callee)]
            cfg = Node("launch-config", "launch-config", [self.expr(c) for c in e.config], e.span)
            kids.append(cfg)
            for a in e.args:
                kids.append(self.expr(a))
            return Node("cuda-kernel-launch", "kernel-launch", kids, e.span)
        if isinstance(e, MemberExpr):
            arrow = "arrow" if e.arrow else "dot"
            n = Node(e.member, "member", [self.expr(e.base)], e.span, {"access": arrow})
            return n
        if isinstance(e, SubscriptExpr):
            return Node("subscript", "expr", [self.expr(e.base), self.expr(e.index)], e.span)
        if isinstance(e, LambdaExpr):
            cap = Node(f"capture:{e.capture or 'none'}", "capture", None, e.span)
            kids: list[Node] = [cap]
            for p in e.params:
                kids.append(self.param(p))
            if e.body is not None:
                kids.append(self.stmt(e.body))
            return Node("lambda", "lambda", kids, e.span)
        if isinstance(e, CastExpr):
            kids = []
            if e.type is not None:
                kids.append(self.type(e.type))
            kids.append(self.expr(e.operand))
            return Node(f"cast:{e.kind}", "cast", kids, e.span)
        if isinstance(e, NewExpr):
            kids = [self.type(e.type)] if e.type is not None else []
            if e.array_size is not None:
                kids.append(self.expr(e.array_size))
            for a in e.ctor_args:
                kids.append(self.expr(a))
            label = "new-array" if e.array_size is not None else "new"
            return Node(label, "alloc", kids, e.span)
        if isinstance(e, DeleteExpr):
            label = "delete-array" if e.is_array else "delete"
            return Node(label, "alloc", [self.expr(e.operand)], e.span)
        if isinstance(e, SizeofExpr):
            kids = [self.type(e.type)] if e.type is not None else [self.expr(e.operand)]
            return Node("sizeof", "expr", kids, e.span)
        if isinstance(e, InitListExpr):
            return Node("init-list", "expr", [self.expr(x) for x in e.items], e.span)
        if isinstance(e, ThisExpr):
            return Node("this", "expr", None, e.span)
        return Node(type(e).__name__, "expr", None, e.span)

    def call(self, e: CallExpr) -> Node:
        # label: best-effort callee name; kind 'call' gets name-normalised.
        name = "call"
        if isinstance(e.callee, IdentExpr):
            name = e.callee.name
        elif isinstance(e.callee, MemberExpr):
            name = e.callee.member
        n = Node(name, "call", None, e.span)
        if isinstance(e.callee, MemberExpr):
            n.add(self.expr(e.callee))
        elif not isinstance(e.callee, IdentExpr):
            n.add(self.expr(e.callee))
        for ta in e.template_args:
            if isinstance(ta, TypeRef):
                n.add(Node("targ", "targ", [self.type(ta)], e.span))
            else:
                n.add(Node("targ", "targ", [self.expr(ta)], e.span))
        for a in e.args:
            n.add(self.expr(a))
        if self.sema is not None:
            r = self.sema.resolved.get(id(e))
            if r is not None:
                qname, decl, is_sys = r
                n.attrs["callee"] = qname
                n.attrs["system"] = is_sys
                if decl is not None and decl.template_params:
                    n.add(self._fn_instantiation(decl, e))
            else:
                cr = self.sema.ctor_resolved.get(id(e))
                if cr is not None and cr[1].template_params:
                    # materialised templated temporary (sycl::range<1>(n)):
                    # the instantiation machinery lands in the AST.
                    inst = Node(
                        "template-instantiation",
                        "instantiation",
                        None,
                        e.span,
                        {"of": cr[0]},
                    )
                    for tp in cr[1].template_params:
                        inst.add(Node(f"tparam:{tp.kind}", "tparam", None, e.span))
                    for m in cr[1].methods[:2]:
                        sig = Node(m.name, "fn", None, e.span)
                        for p in m.params:
                            sig.add(_respan(self.param(p), e.span))
                        inst.add(sig)
                    n.add(inst)
        return n

    def _fn_instantiation(self, decl: FunctionDecl, site: CallExpr, depth: int = 0) -> Node:
        """Signature-level template expansion at a call site."""
        inst = Node(
            "template-instantiation", "instantiation", None, site.span, {"of": decl.name}
        )
        if depth >= _INST_DEPTH_LIMIT:
            return inst
        for tp in decl.template_params:
            inst.add(Node(f"tparam:{tp.kind}", "tparam", None, site.span))
        if decl.ret is not None:
            inst.add(_respan(self.type(decl.ret), site.span))
        for p in decl.params:
            inst.add(_respan(self.param(p), site.span))
        return inst
