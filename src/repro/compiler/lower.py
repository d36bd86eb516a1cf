"""AST → MiniIR lowering, including offload-bundle emission.

The lowering is structurally faithful to how Clang treats each dialect:

* **host OpenMP** — the structured block is outlined into
  ``<fn>.omp_outlined.<k>`` and the original site calls
  ``__kmpc_fork_call`` (plus reduction runtime calls when a ``reduction``
  clause is present).
* **OpenMP target** — the region is outlined into a *device module*
  (``__omp_offloading_…``), the host calls ``__tgt_target_kernel``, and the
  device module carries offload-registration machinery.
* **CUDA/HIP** — ``__global__`` functions are lowered into the device
  module; the host keeps a launch stub per kernel; each device module gets
  fatbin wrapper globals and module ctor/dtor registration functions. This
  per-file driver code is exactly the noise behind the paper's "T_ir seems
  to misbehave for offload models" observation.
* **SYCL** — lambdas passed to ``submit``/``parallel_for``/``single_task``
  are outlined as device kernels; the host calls PI runtime entry points.
* **lambdas** generally outline to ``lambda.<k>`` closures, mirroring how
  library models (Kokkos/TBB/StdPar) lower on the host.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.lang.cpp.astnodes import (
    AssignExpr,
    BinaryExpr,
    BreakStmt,
    CallExpr,
    CastExpr,
    CompoundStmt,
    CondExpr,
    ContinueStmt,
    DeclStmt,
    DeleteExpr,
    DoStmt,
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
    PragmaStmt,
    ReturnStmt,
    SizeofExpr,
    Stmt,
    SubscriptExpr,
    ThisExpr,
    TranslationUnit,
    UnaryExpr,
    VarDecl,
    WhileStmt,
)
from repro.lang.cpp.sema import SemaResult
from repro.compiler.ir import IRBlock, IRFunction, IRGlobal, IRInstr, IRModule

_BIN_OPS = {
    "+": "add",
    "-": "sub",
    "*": "mul",
    "/": "div",
    "%": "rem",
    "<<": "shl",
    ">>": "shr",
    "&": "and",
    "|": "or",
    "^": "xor",
    "&&": "land",
    "||": "lor",
    "==": "cmp.eq",
    "!=": "cmp.ne",
    "<": "cmp.lt",
    "<=": "cmp.le",
    ">": "cmp.gt",
    ">=": "cmp.ge",
    ",": "seq",
}

#: member-call names that submit a SYCL kernel (their lambda argument is a
#: device entry point).
_SYCL_LAUNCHERS = frozenset({"parallel_for", "single_task", "submit"})


@dataclass
class CompileOptions:
    """Per-unit compiler configuration (the compile-DB flags analogue)."""

    dialect: str = "host"  # host | cuda | hip | sycl
    openmp: bool = False
    name: str = "unit"


@dataclass
class CompileResult:
    """An offload bundle: host module plus zero or more device modules."""

    host: IRModule
    devices: list[IRModule] = field(default_factory=list)
    options: CompileOptions = field(default_factory=CompileOptions)

    @property
    def is_bundle(self) -> bool:
        return bool(self.devices)


def lower_unit(
    tu: TranslationUnit, sema: SemaResult, options: Optional[CompileOptions] = None
) -> CompileResult:
    """Lower a translation unit to its MiniIR offload bundle."""
    opts = options or CompileOptions()
    lw = _Lowerer(sema, opts)
    lw.run(tu)
    return CompileResult(lw.host, lw.devices, opts)


class _LoopCtx:
    def __init__(self, brk: str, cont: str):
        self.brk = brk
        self.cont = cont


class _Lowerer:
    def __init__(self, sema: SemaResult, opts: CompileOptions):
        self.sema = sema
        self.opts = opts
        self.host = IRModule(opts.name, "host")
        self.devices: list[IRModule] = []
        self._device: Optional[IRModule] = None
        self.lambda_n = 0
        self.outline_n = 0
        self.kernel_n = 0
        # per-function state
        self.fn: Optional[IRFunction] = None
        self.block: Optional[IRBlock] = None
        self.module: Optional[IRModule] = None
        self.reg_n = 0
        self.blk_n = 0
        self.vars: dict[str, str] = {}
        self.loops: list[_LoopCtx] = []

    # -- device module management -------------------------------------------
    def device_module(self) -> IRModule:
        """The (lazily created) device module, with driver noise attached."""
        if self._device is None:
            dialect = self.opts.dialect if self.opts.dialect in ("cuda", "hip", "sycl") else "omp"
            m = IRModule(f"{self.opts.name}.{dialect}-device", f"device:{dialect}")
            self._attach_driver_noise(m, dialect)
            self.devices.append(m)
            self._device = m
        return self._device

    def _attach_driver_noise(self, m: IRModule, dialect: str) -> None:
        """Per-file runtime/driver support code embedded in offload output.

        Repeated for each translation unit, "artificially increasing the
        divergence" (§V-C) — modelled on what clang's offload bundler and
        CUDA/HIP/SYCL toolchains actually embed.
        """
        if dialect in ("cuda", "hip"):
            pre = "cuda" if dialect == "cuda" else "hip"
            m.globals.append(IRGlobal(f"__{pre}_fatbin_wrapper", "fatbin", "section .nv_fatbin"))
            m.globals.append(IRGlobal(f"__{pre}_gpubin_handle", "handle"))
            for fname, callee in (
                (f"__{pre}_module_ctor", f"__{pre}RegisterFatBinary"),
                (f"__{pre}_module_dtor", f"__{pre}UnregisterFatBinary"),
                (f"__{pre}_register_globals", f"__{pre}RegisterFunction"),
            ):
                f = IRFunction(fname, [])
                b = f.new_block("entry")
                b.add(IRInstr("call", [f"@{callee}", f"@__{pre}_fatbin_wrapper"]))
                b.add(IRInstr("ret", []))
                m.functions.append(f)
            m.declare(f"__{pre}RegisterFatBinary", 1)
            m.declare(f"__{pre}UnregisterFatBinary", 1)
            m.declare(f"__{pre}RegisterFunction", 2)
        elif dialect == "omp":
            m.globals.append(IRGlobal(".omp_offloading.img", "fatbin", "section .llvm.offloading"))
            m.globals.append(IRGlobal(".offload_entries", "const"))
            f = IRFunction(".omp_offloading.requires_reg", [])
            b = f.new_block("entry")
            b.add(IRInstr("call", ["@__tgt_register_requires", "1"]))
            b.add(IRInstr("ret", []))
            m.functions.append(f)
            m.declare("__tgt_register_requires", 1)
        elif dialect == "sycl":
            m.globals.append(IRGlobal("__sycl_offload_entries", "const"))
            m.globals.append(IRGlobal("_ZL10image_desc", "fatbin", "section __CLANG_OFFLOAD_BUNDLE"))
            f = IRFunction("__sycl_register_lib", [])
            b = f.new_block("entry")
            b.add(IRInstr("call", ["@__sycl_register_images", "@__sycl_offload_entries"]))
            b.add(IRInstr("ret", []))
            m.functions.append(f)
            m.declare("__sycl_register_images", 1)

    # -- function plumbing -----------------------------------------------------
    def fresh_reg(self) -> str:
        self.reg_n += 1
        return f"%{self.reg_n}"

    def fresh_block(self, hint: str) -> IRBlock:
        assert self.fn is not None
        self.blk_n += 1
        return self.fn.new_block(f"{hint}.{self.blk_n}")

    def emit(self, op: str, operands: list[str], result: bool = False, span=None) -> str:
        assert self.block is not None
        res = self.fresh_reg() if result else ""
        self.block.add(IRInstr(op, operands, res, span))
        return res

    def set_block(self, b: IRBlock) -> None:
        self.block = b

    # -- entry ------------------------------------------------------------------
    def run(self, tu: TranslationUnit) -> None:
        self._run_decls(tu.decls)

    def _run_decls(self, decls) -> None:
        for d in decls:
            if isinstance(d, NamespaceDecl):
                self._run_decls(d.decls)
            elif isinstance(d, FunctionDecl) and d.body is not None:
                if d.is_kernel and self.opts.dialect in ("cuda", "hip"):
                    self.lower_function(d, self.device_module(), kernel=True)
                    self._emit_host_stub(d)
                else:
                    self.lower_function(d, self.host)
            elif isinstance(d, VarDecl):
                self.host.globals.append(
                    IRGlobal(d.name, "global", span=d.span)
                )

    def _emit_host_stub(self, d: FunctionDecl) -> None:
        pre = "cuda" if self.opts.dialect == "cuda" else "hip"
        stub = IRFunction(f"__device_stub__{d.name}", [p.name or "p" for p in d.params], span=d.span)
        b = stub.new_block("entry")
        b.add(IRInstr("call", [f"@{pre}PopCallConfiguration"]))
        b.add(IRInstr("call", [f"@{pre}LaunchKernel", f"@{d.name}"], span=d.span))
        b.add(IRInstr("ret", []))
        self.host.functions.append(stub)
        self.host.declare(f"{pre}LaunchKernel", 2)
        self.host.declare(f"{pre}PopCallConfiguration", 0)
        self.host.declare(f"{pre}PushCallConfiguration", 2)

    def lower_function(self, d: FunctionDecl, module: IRModule, kernel: bool = False) -> IRFunction:
        # save/restore per-function state (outlining recurses)
        saved = (self.fn, self.block, self.module, self.reg_n, self.blk_n, self.vars, self.loops)
        fn = IRFunction(
            d.name,
            [p.name or f"p{i}" for i, p in enumerate(d.params)],
            attrs=(["kernel"] if kernel else []),
            span=d.span,
        )
        module.functions.append(fn)
        self.fn = fn
        self.module = module
        self.reg_n = 0
        self.blk_n = 0
        self.vars = {}
        self.loops = []
        entry = fn.new_block("entry")
        self.set_block(entry)
        for p in d.params:
            if p.name:
                slot = self.emit("alloca", [p.name], result=True, span=p.span)
                self.emit("store", [f"%{p.name}", slot], span=p.span)
                self.vars[p.name] = slot
        if d.body is not None:
            self.stmt(d.body)
        if self.block is not None and not self.block.terminated:
            self.block.add(IRInstr("ret", []))
        self.fn, self.block, self.module, self.reg_n, self.blk_n, self.vars, self.loops = saved
        return fn

    # -- statements ----------------------------------------------------------------
    def stmt(self, s: Optional[Stmt]) -> None:
        if s is None or self.block is None:
            return
        if isinstance(s, CompoundStmt):
            for st in s.stmts:
                if self.block is None or self.block.terminated:
                    break
                self.stmt(st)
        elif isinstance(s, DeclStmt):
            for v in s.decls:
                self.var_decl(v)
        elif isinstance(s, ExprStmt):
            if s.expr is not None:
                self.expr(s.expr)
        elif isinstance(s, IfStmt):
            self.lower_if(s)
        elif isinstance(s, ForStmt):
            self.lower_for(s)
        elif isinstance(s, WhileStmt):
            self.lower_while(s)
        elif isinstance(s, DoStmt):
            self.lower_do(s)
        elif isinstance(s, ReturnStmt):
            ops = [self.expr(s.value)] if s.value is not None else []
            self.emit("ret", ops, span=s.span)
        elif isinstance(s, BreakStmt):
            if self.loops:
                self.emit("br", [self.loops[-1].brk], span=s.span)
        elif isinstance(s, ContinueStmt):
            if self.loops:
                self.emit("br", [self.loops[-1].cont], span=s.span)
        elif isinstance(s, PragmaStmt):
            self.lower_pragma(s)
        elif isinstance(s, ErrorStmt):
            # Parser recovery placeholder: keep a visible marker so T_ir
            # stays aligned with the error-node leaves in T_src/T_sem.
            self.emit("error-node", [], span=s.span)

    def var_decl(self, v: VarDecl) -> None:
        slot = self.emit("alloca", [v.name], result=True, span=v.span)
        self.vars[v.name] = slot
        if v.init is not None:
            val = self.expr(v.init)
            self.emit("store", [val, slot], span=v.span)
        elif v.ctor_args is not None:
            args = [self.expr(a) for a in v.ctor_args]
            ctor = v.type.base_name if v.type is not None else "ctor"
            self.emit("call", [f"@{ctor}.ctor", slot, *args], span=v.span)
            if self.module is not None:
                self.module.declare(f"{ctor}.ctor", len(args) + 1)

    def lower_if(self, s: IfStmt) -> None:
        cond = self.expr(s.cond)
        then_b = self.fresh_block("if.then")
        merge_b = self.fresh_block("if.end")
        else_b = self.fresh_block("if.else") if s.other is not None else merge_b
        self.emit("condbr", [cond, then_b.label, else_b.label], span=s.span)
        self.set_block(then_b)
        self.stmt(s.then)
        if not self.block.terminated:
            self.emit("br", [merge_b.label])
        if s.other is not None:
            self.set_block(else_b)
            self.stmt(s.other)
            if not self.block.terminated:
                self.emit("br", [merge_b.label])
        self.set_block(merge_b)

    def lower_for(self, s: ForStmt) -> None:
        if s.init is not None:
            self.stmt(s.init)
        cond_b = self.fresh_block("for.cond")
        body_b = self.fresh_block("for.body")
        inc_b = self.fresh_block("for.inc")
        end_b = self.fresh_block("for.end")
        self.emit("br", [cond_b.label], span=s.span)
        self.set_block(cond_b)
        if s.cond is not None:
            c = self.expr(s.cond)
            self.emit("condbr", [c, body_b.label, end_b.label])
        else:
            self.emit("br", [body_b.label])
        self.set_block(body_b)
        self.loops.append(_LoopCtx(end_b.label, inc_b.label))
        self.stmt(s.body)
        self.loops.pop()
        if not self.block.terminated:
            self.emit("br", [inc_b.label])
        self.set_block(inc_b)
        if s.inc is not None:
            self.expr(s.inc)
        self.emit("br", [cond_b.label])
        self.set_block(end_b)

    def lower_while(self, s: WhileStmt) -> None:
        cond_b = self.fresh_block("while.cond")
        body_b = self.fresh_block("while.body")
        end_b = self.fresh_block("while.end")
        self.emit("br", [cond_b.label], span=s.span)
        self.set_block(cond_b)
        c = self.expr(s.cond)
        self.emit("condbr", [c, body_b.label, end_b.label])
        self.set_block(body_b)
        self.loops.append(_LoopCtx(end_b.label, cond_b.label))
        self.stmt(s.body)
        self.loops.pop()
        if not self.block.terminated:
            self.emit("br", [cond_b.label])
        self.set_block(end_b)

    def lower_do(self, s: DoStmt) -> None:
        body_b = self.fresh_block("do.body")
        cond_b = self.fresh_block("do.cond")
        end_b = self.fresh_block("do.end")
        self.emit("br", [body_b.label], span=s.span)
        self.set_block(body_b)
        self.loops.append(_LoopCtx(end_b.label, cond_b.label))
        self.stmt(s.body)
        self.loops.pop()
        if not self.block.terminated:
            self.emit("br", [cond_b.label])
        self.set_block(cond_b)
        c = self.expr(s.cond)
        self.emit("condbr", [c, body_b.label, end_b.label])
        self.set_block(end_b)

    # -- OpenMP ---------------------------------------------------------------------
    def lower_pragma(self, s: PragmaStmt) -> None:
        assert self.fn is not None and self.module is not None
        is_target = "target" in s.directives
        has_reduction = any(c.name == "reduction" for c in s.clauses)
        if s.body is None:
            # standalone directives lower to runtime calls
            if "barrier" in s.directives:
                self.emit("call", ["@__kmpc_barrier"], span=s.span)
                self.module.declare("__kmpc_barrier", 0)
            elif "taskwait" in s.directives:
                self.emit("call", ["@__kmpc_omp_taskwait"], span=s.span)
                self.module.declare("__kmpc_omp_taskwait", 0)
            elif set(s.directives) & {"update", "enter", "exit", "data"}:
                self.emit("call", ["@__tgt_target_data_update"], span=s.span)
                self.module.declare("__tgt_target_data_update", 1)
            return
        if is_target and s.family == "omp":
            self._lower_omp_target(s)
        elif s.family == "acc":
            self._lower_acc(s)
        else:
            self._lower_omp_host(s, has_reduction)

    def _outlined_name(self, tag: str) -> str:
        self.outline_n += 1
        base = self.fn.name if self.fn is not None else "fn"
        return f"{base}.{tag}.{self.outline_n}"

    def _outline(self, body: Stmt, name: str, module: IRModule, kernel: bool = False) -> IRFunction:
        shim = FunctionDecl(name=name, ret=None, params=[], body=None, span=body.span)
        fn = self.lower_function(shim, module, kernel=kernel)
        # lower the body inside the outlined function context
        saved = (self.fn, self.block, self.module, self.reg_n, self.blk_n, self.vars, self.loops)
        self.fn = fn
        self.module = module
        self.block = fn.blocks[0]
        # drop the synthetic ret terminator; re-terminate after body
        if fn.blocks[0].instrs and fn.blocks[0].instrs[-1].op == "ret":
            fn.blocks[0].instrs.pop()
        self.reg_n = 0
        self.blk_n = 0
        self.vars = dict(saved[5])  # captured variables stay addressable
        self.loops = []
        self.stmt(body)
        if self.block is not None and not self.block.terminated:
            self.block.add(IRInstr("ret", []))
        self.fn, self.block, self.module, self.reg_n, self.blk_n, self.vars, self.loops = saved
        return fn

    def _lower_omp_host(self, s: PragmaStmt, has_reduction: bool) -> None:
        name = self._outlined_name("omp_outlined")
        self._outline(s.body, name, self.host)
        self.emit("call", ["@__kmpc_fork_call", f"@{name}"], span=s.span)
        self.host.declare("__kmpc_fork_call", 2)
        if has_reduction:
            self.emit("call", ["@__kmpc_reduce_nowait"], span=s.span)
            self.host.declare("__kmpc_reduce_nowait", 1)
        if "taskloop" in s.directives or "task" in s.directives:
            self.emit("call", ["@__kmpc_omp_task_alloc"], span=s.span)
            self.host.declare("__kmpc_omp_task_alloc", 1)

    def _lower_omp_target(self, s: PragmaStmt) -> None:
        self.kernel_n += 1
        dev = self.device_module()
        name = f"__omp_offloading_{self.kernel_n:02d}_{self.fn.name}"
        self._outline(s.body, name, dev, kernel=True)
        if any(c.name.startswith("map") for c in s.clauses):
            self.emit("call", ["@__tgt_target_data_begin"], span=s.span)
            self.host.declare("__tgt_target_data_begin", 1)
        self.emit("call", ["@__tgt_target_kernel", f"@{name}.region_id"], span=s.span)
        self.host.globals.append(IRGlobal(f"{name}.region_id", "const"))
        self.host.declare("__tgt_target_kernel", 2)
        if any(c.name.startswith("map") for c in s.clauses):
            self.emit("call", ["@__tgt_target_data_end"], span=s.span)
            self.host.declare("__tgt_target_data_end", 1)
        if any(c.name == "reduction" for c in s.clauses):
            self.emit("call", ["@__tgt_target_reduction"], span=s.span)
            self.host.declare("__tgt_target_reduction", 1)

    def _lower_acc(self, s: PragmaStmt) -> None:
        """OpenACC host fallback: GCC-style single-threaded lowering.

        Models the quality-of-implementation issue the paper observed in
        GCC's OpenACC (§V-B): the region lowers essentially like serial
        code plus a thin ``GOACC_parallel`` veneer.
        """
        name = self._outlined_name("acc_outlined")
        self._outline(s.body, name, self.host)
        self.emit("call", ["@GOACC_parallel_keyed", f"@{name}"], span=s.span)
        self.host.declare("GOACC_parallel_keyed", 2)

    # -- expressions -----------------------------------------------------------------
    def expr(self, e: Optional[Expr]) -> str:
        if e is None or self.block is None:
            return "undef"
        if isinstance(e, LiteralExpr):
            return f"const:{e.value}"
        if isinstance(e, IdentExpr):
            name = e.parts[-1]
            slot = self.vars.get(name)
            if slot is not None:
                return self.emit("load", [slot], result=True, span=e.span)
            return f"@{e.name}"
        if isinstance(e, BinaryExpr):
            lhs = self.expr(e.lhs)
            rhs = self.expr(e.rhs)
            op = _BIN_OPS.get(e.op, "bin")
            return self.emit(op, [lhs, rhs], result=True, span=e.span)
        if isinstance(e, AssignExpr):
            return self.lower_assign(e)
        if isinstance(e, UnaryExpr):
            if e.op in ("++", "--"):
                addr = self.lvalue(e.operand)
                cur = self.emit("load", [addr], result=True, span=e.span)
                op = "add" if e.op == "++" else "sub"
                nxt = self.emit(op, [cur, "const:1"], result=True, span=e.span)
                self.emit("store", [nxt, addr], span=e.span)
                return nxt if e.prefix else cur
            if e.op == "*":
                ptr = self.expr(e.operand)
                return self.emit("load", [ptr], result=True, span=e.span)
            if e.op == "&":
                return self.lvalue(e.operand)
            opmap = {"-": "neg", "!": "not", "~": "bnot", "+": "pos"}
            v = self.expr(e.operand)
            if e.op == "+":
                return v
            return self.emit(opmap.get(e.op, "unop"), [v], result=True, span=e.span)
        if isinstance(e, CondExpr):
            c = self.expr(e.cond)
            a = self.expr(e.then)
            b = self.expr(e.other)
            return self.emit("select", [c, a, b], result=True, span=e.span)
        if isinstance(e, CallExpr):
            return self.lower_call(e)
        if isinstance(e, KernelLaunchExpr):
            return self.lower_launch(e)
        if isinstance(e, MemberExpr):
            base = self.expr(e.base)
            addr = self.emit("gep", [base, f"field:{e.member}"], result=True, span=e.span)
            return self.emit("load", [addr], result=True, span=e.span)
        if isinstance(e, SubscriptExpr):
            base = self.expr(e.base)
            idx = self.expr(e.index)
            addr = self.emit("gep", [base, idx], result=True, span=e.span)
            return self.emit("load", [addr], result=True, span=e.span)
        if isinstance(e, LambdaExpr):
            return self.lower_lambda(e)
        if isinstance(e, CastExpr):
            v = self.expr(e.operand)
            return self.emit("cast", [v], result=True, span=e.span)
        if isinstance(e, NewExpr):
            size = self.expr(e.array_size) if e.array_size is not None else "const:1"
            r = self.emit("call", ["@_Znam", size], result=True, span=e.span)
            if self.module is not None:
                self.module.declare("_Znam", 1)
            return r
        if isinstance(e, DeleteExpr):
            v = self.expr(e.operand)
            self.emit("call", ["@_ZdaPv", v], span=e.span)
            if self.module is not None:
                self.module.declare("_ZdaPv", 1)
            return "undef"
        if isinstance(e, SizeofExpr):
            return "const:sizeof"
        if isinstance(e, InitListExpr):
            vals = [self.expr(x) for x in e.items]
            return self.emit("aggregate", vals, result=True, span=e.span)
        if isinstance(e, ThisExpr):
            return "%this"
        return "undef"

    def lvalue(self, e: Optional[Expr]) -> str:
        """Address of an assignable expression."""
        if e is None or self.block is None:
            return "undef"
        if isinstance(e, IdentExpr):
            slot = self.vars.get(e.parts[-1])
            return slot if slot is not None else f"@{e.name}"
        if isinstance(e, SubscriptExpr):
            base = self.expr(e.base)
            idx = self.expr(e.index)
            return self.emit("gep", [base, idx], result=True, span=e.span)
        if isinstance(e, MemberExpr):
            base = self.expr(e.base)
            return self.emit("gep", [base, f"field:{e.member}"], result=True, span=e.span)
        if isinstance(e, UnaryExpr) and e.op == "*":
            return self.expr(e.operand)
        # fall back: materialise
        v = self.expr(e)
        slot = self.emit("alloca", ["tmp"], result=True, span=e.span)
        self.emit("store", [v, slot], span=e.span)
        return slot

    def lower_assign(self, e: AssignExpr) -> str:
        addr = self.lvalue(e.lhs)
        if e.op == "=":
            val = self.expr(e.rhs)
        else:
            cur = self.emit("load", [addr], result=True, span=e.span)
            rhs = self.expr(e.rhs)
            op = _BIN_OPS.get(e.op[:-1], "bin")
            val = self.emit(op, [cur, rhs], result=True, span=e.span)
        self.emit("store", [val, addr], span=e.span)
        return val

    def lower_call(self, e: CallExpr) -> str:
        resolved = self.sema.resolved.get(id(e))
        callee_name = None
        if resolved is not None:
            callee_name = resolved[0]
        elif isinstance(e.callee, IdentExpr):
            callee_name = e.callee.name
        elif isinstance(e.callee, MemberExpr):
            callee_name = e.callee.member

        # SYCL device outlining: a lambda passed to a launcher becomes a
        # device kernel rather than a host closure.
        if (
            self.opts.dialect == "sycl"
            and callee_name is not None
            and callee_name.rsplit("::", 1)[-1] in _SYCL_LAUNCHERS
        ):
            return self._lower_sycl_launch(e, callee_name)

        args = []
        if isinstance(e.callee, MemberExpr):
            args.append(self.expr(e.callee.base))
        for a in e.args:
            args.append(self.expr(a))
        sym = f"@{callee_name.rsplit('::', 1)[-1] if callee_name else 'indirect'}"
        if self.module is not None and callee_name is not None:
            short = callee_name.rsplit("::", 1)[-1]
            if self.module.function(short) is None:
                self.module.declare(short, len(args))
        return self.emit("call", [sym, *args], result=True, span=e.span)

    def _lower_sycl_launch(self, e: CallExpr, callee_name: str) -> str:
        dev = self.device_module()
        lam = next((a for a in e.args if isinstance(a, LambdaExpr)), None)
        other_args = [self.expr(a) for a in e.args if not isinstance(a, LambdaExpr)]
        if isinstance(e.callee, MemberExpr):
            other_args.insert(0, self.expr(e.callee.base))
        if lam is not None and lam.body is not None:
            self.kernel_n += 1
            kname = f"_ZTSZ_kernel_{self.kernel_n:02d}"
            self._outline(lam.body, kname, dev, kernel=True)
            self.host.declare("piEnqueueKernelLaunch", 3)
            self.host.declare("piKernelCreate", 2)
            self.emit("call", ["@piKernelCreate", f"@{kname}.entry"], span=e.span)
            self.host.globals.append(IRGlobal(f"{kname}.entry", "const"))
            return self.emit(
                "call", ["@piEnqueueKernelLaunch", *other_args], result=True, span=e.span
            )
        short = callee_name.rsplit("::", 1)[-1]
        self.host.declare(short, len(other_args))
        return self.emit("call", [f"@{short}", *other_args], result=True, span=e.span)

    def lower_launch(self, e: KernelLaunchExpr) -> str:
        pre = "cuda" if self.opts.dialect != "hip" else "hip"
        cfg = [self.expr(c) for c in e.config]
        self.emit("call", [f"@{pre}PushCallConfiguration", *cfg], span=e.span)
        self.host.declare(f"{pre}PushCallConfiguration", 2)
        args = [self.expr(a) for a in e.args]
        name = e.callee.name if isinstance(e.callee, IdentExpr) else "kernel"
        return self.emit("call", [f"@__device_stub__{name}", *args], result=True, span=e.span)

    def lower_lambda(self, e: LambdaExpr) -> str:
        self.lambda_n += 1
        name = f"lambda.{self.lambda_n}"
        if e.body is not None:
            assert self.module is not None
            self._outline(e.body, name, self.module)
        return f"@{name}"
