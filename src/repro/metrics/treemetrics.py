"""TBMD tree metrics: ``T_src``, ``T_sem``, ``T_ir`` (paper Eq. 5/6/7).

The distance between two codebases under a tree metric is the summed TED
over matched unit-tree pairs (Eq. 6); ``dmax`` (Eq. 7) sums, per matched
pair, the larger of the two tree sizes, and an unmatched unit's own size
(:func:`repro.distance.ted.pair_dmax`). Both sums are symmetric, so the
divergence of ``a`` from ``b`` equals that of ``b`` from ``a``.
"""

from __future__ import annotations

from typing import Optional

from repro import obs
from repro.distance.ted import pair_dmax, ted
from repro.lang.source import is_system_path
from repro.trees.coverage_mask import LineMask
from repro.trees.node import Node
from repro.workflow.codebase import IndexedCodebase, IndexedUnit, match_units

#: variant spellings accepted by :func:`tree_distance`.
TREE_KINDS = ("src", "src+pp", "sem", "sem+i", "ir")


def _strip_system(tree: Node) -> Node:
    """Mask out subtrees whose spans live in the system-include tree.

    The paper: "artefacts such as system headers ... can simply be masked
    out during the analysis phase".
    """

    def keep(n: Node) -> bool:
        return n.span is None or not is_system_path(n.span.file)

    out = tree.filter_subtrees(keep)
    return out if out is not None else Node(tree.label, tree.kind)


def unit_trees(
    unit: IndexedUnit,
    which: str,
    mask: Optional[LineMask] = None,
    include_system: bool = False,
) -> Optional[Node]:
    """The (optionally masked / system-stripped) tree of one unit."""
    t = unit.tree(which)
    if t is None:
        return None
    if not include_system:
        # stripping copies the tree; memoise per unit (matrices revisit the
        # same unit dozens of times)
        cache = unit.__dict__.setdefault("_stripped_cache", {})
        if which not in cache:
            cache[which] = _strip_system(t)
        t = cache[which]
    if mask is not None:
        from repro.trees.coverage_mask import mask_tree

        masked = mask_tree(t, mask)
        t = masked if masked is not None else Node(t.label, t.kind)
    return t


def _matched_trees(
    a: IndexedCodebase,
    b: IndexedCodebase,
    which: str,
    mask_a: Optional[LineMask],
    mask_b: Optional[LineMask],
    include_system: bool,
):
    """Matched unit-tree pairs of one codebase pair (either side may be
    ``None``). The single iteration shared by :func:`tree_distance` and
    :func:`tree_ted_demands`, so the demand list can never drift from what
    the distance actually evaluates."""
    if which not in TREE_KINDS:
        raise ValueError(f"unknown tree metric {which!r}; expected one of {TREE_KINDS}")
    for ua, ub in match_units(a, b):
        ta = unit_trees(ua, which, mask_a, include_system) if ua is not None else None
        tb = unit_trees(ub, which, mask_b, include_system) if ub is not None else None
        if ta is None and tb is None:
            continue
        yield ta, tb


@obs.traced("metric.tree")
def tree_distance(
    a: IndexedCodebase,
    b: IndexedCodebase,
    which: str = "sem",
    mask_a: Optional[LineMask] = None,
    mask_b: Optional[LineMask] = None,
    include_system: bool = False,
) -> tuple[float, float]:
    """Summed TED over matched unit pairs; returns (d, dmax).

    An unmatched unit costs its full size (deleted or inserted whole) and
    adds that size to ``dmax``; a matched pair adds the larger of the two.
    """
    d = 0.0
    dmax = 0.0
    for ta, tb in _matched_trees(a, b, which, mask_a, mask_b, include_system):
        if ta is None or tb is None:
            size = (tb if ta is None else ta).size()
            d += size
            dmax += pair_dmax(size, 0)
            continue
        r = ted(ta, tb)
        d += r.distance
        dmax += r.dmax
    return d, dmax


def tree_ted_demands(
    a: IndexedCodebase,
    b: IndexedCodebase,
    which: str = "sem",
    mask_a: Optional[LineMask] = None,
    mask_b: Optional[LineMask] = None,
    include_system: bool = False,
) -> list[tuple[Node, Node]]:
    """The TED tree pairs :func:`tree_distance` would evaluate.

    Unmatched units (a ``None`` side) are pure size sums and need no
    kernel, so they are omitted. Chunk-level ``prepare`` hooks feed these
    pairs to :func:`repro.distance.ted.ted_many` so the whole chunk's
    kernel work is batched cross-pair before the per-task loop runs.
    """
    return [
        (ta, tb)
        for ta, tb in _matched_trees(a, b, which, mask_a, mask_b, include_system)
        if ta is not None and tb is not None
    ]
