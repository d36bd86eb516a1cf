"""MiniIR backend: AST lowering, offload bundles, and ``T_ir`` extraction.

Models the paper's backend path (Fig. 3): the AST is lowered to a
platform-independent SSA-flavoured IR (LLVM-bitcode analogue); offloading
dialects (CUDA, HIP, OpenMP target, SYCL) produce *offload bundles* — a host
module plus embedded device modules plus per-file registration/driver stubs.
Those stubs are deliberately modelled because they drive the paper's §V-C
finding that "T_ir seems to misbehave for offload models".
"""

from repro.compiler.ir import IRModule, IRFunction, IRBlock, IRInstr, IRGlobal
from repro.compiler.lower import lower_unit, CompileOptions, CompileResult
from repro.compiler.irtree import ir_to_tree, bundle_to_tree

__all__ = [
    "IRModule",
    "IRFunction",
    "IRBlock",
    "IRInstr",
    "IRGlobal",
    "lower_unit",
    "CompileOptions",
    "CompileResult",
    "ir_to_tree",
    "bundle_to_tree",
]
