"""Semantic-bearing tree core (paper §III-A).

Every codebase summary in this library — ``T_src`` (normalised concrete
syntax), ``T_sem`` (frontend AST) and ``T_ir`` (backend IR) — is an n-ary
:class:`Node` tree whose nodes carry a back-reference to the originating
source location (:class:`SourceSpan`). The back references enable dependency
closure, coverage masking and pruning exactly as §III-A of the paper
requires.
"""

from repro.trees.node import Node, SourceSpan
from repro.trees.builders import leaf, tree, from_sexpr, to_sexpr
from repro.trees.normalize import normalize_names
from repro.trees.inline import inline_calls
from repro.trees.coverage_mask import mask_tree
from repro.trees.stats import TreeStats, tree_stats, label_histogram
from repro.trees.hashing import structural_hash

__all__ = [
    "Node",
    "SourceSpan",
    "leaf",
    "tree",
    "from_sexpr",
    "to_sexpr",
    "normalize_names",
    "inline_calls",
    "mask_tree",
    "TreeStats",
    "tree_stats",
    "label_histogram",
    "structural_hash",
]
