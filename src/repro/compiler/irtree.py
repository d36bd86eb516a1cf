"""MiniIR → ``T_ir`` tree conversion.

Per §IV-A, the IR tree "discard[s] all symbol names but retain[s]
instruction names, functions, basic blocks, and globals". Offload bundles
become one tree whose children are the host module and every embedded
device module, reproducing the paper's extraction of clang offload bundles.
"""

from __future__ import annotations

from repro.compiler.ir import IRFunction, IRModule
from repro.compiler.lower import CompileResult
from repro.trees.node import Node


def ir_to_tree(module: IRModule) -> Node:
    """Tree of one IR module: module → functions/globals → blocks → instrs."""
    root = Node(f"module:{module.target}", "ir-module", None, None, {"name": module.name})
    for g in module.globals:
        root.add(Node(f"global:{g.kind}", "ir-global", None, g.span, {"name": g.name}))
    for f in module.functions:
        root.add(_fn_tree(f))
    return root


def _fn_tree(f: IRFunction) -> Node:
    if f.linkage == "declare":
        return Node("declare", "ir-fn", None, f.span, {"name": f.name})
    label = "kernel" if "kernel" in f.attrs else "function"
    n = Node(label, "ir-fn", None, f.span, {"name": f.name})
    for p in f.params:
        n.add(Node("arg", "ir-arg", None, f.span))
    for b in f.blocks:
        bn = Node("block", "ir-block", None, None)
        for ins in b.instrs:
            # operand identities are symbols/registers: dropped; only the
            # opcode and arity survive.
            bn.add(Node(ins.op, "ir-instr", None, ins.span, {"arity": len(ins.operands)}))
        n.add(bn)
    return n


def bundle_to_tree(result: CompileResult) -> Node:
    """Tree of a full offload bundle (host + device modules)."""
    if not result.is_bundle:
        return ir_to_tree(result.host)
    root = Node("offload-bundle", "ir-bundle", None, None, {"name": result.host.name})
    root.add(ir_to_tree(result.host))
    for dev in result.devices:
        root.add(ir_to_tree(dev))
    return root
