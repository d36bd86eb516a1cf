"""Exact pair pinning: matrix cells that need no tree edit distance.

A divergence-matrix cell pins without any kernel when every matched unit
pair of the two models is hash-identical (TED exactly 0): the pair's
``D`` is then the unmatched units' sizes and its ``dmax`` is
:func:`repro.distance.ted.pair_dmax` summed per role, both integer sums
over stored unit geometry. :class:`PairPinner` is that check; ``cluster``
passes one to :func:`repro.workflow.comparer.divergence_matrix` on the
CLI and in serve. Counter: ``index.matrix.pinned``.
"""

from __future__ import annotations

from typing import Optional

from repro import obs
from repro.distance.ted import pair_dmax
from repro.trees.hashing import cached_structural_hash
from repro.workflow.codebase import IndexedCodebase
from repro.workflow.comparer import MetricSpec, _tree_kind


def unit_entries(cb: IndexedCodebase, spec: MetricSpec) -> dict[str, dict]:
    """Per-unit ``role -> {hash, size}`` of the tree *as this spec compares
    it* (post system-strip, post coverage-mask). Units whose derived tree
    is absent are omitted, mirroring exactly which pairs
    :func:`~repro.metrics.treemetrics.tree_distance` skips; the hash is the
    one the TED shortcut reads and the size is ``Node.size()``, as in
    ``tree_distance``. Memoised on the codebase (frozen-tree contract)."""
    from repro.metrics.treemetrics import unit_trees

    memo = getattr(cb, "_unit_entries", None)
    if memo is None:
        memo = {}
        cb._unit_entries = memo
    key = (spec.label, spec.include_system)
    hit = memo.get(key)
    if hit is not None:
        return hit
    which = _tree_kind(spec)
    if which is None:
        raise ValueError(f"{spec.label} is not a tree metric")
    mask = cb.mask() if spec.coverage else None
    units: dict[str, dict] = {}
    for role in cb.roles():
        t = unit_trees(cb.units[role], which, mask, spec.include_system)
        if t is None:
            continue
        units[role] = {"hash": cached_structural_hash(t), "size": t.size()}
    memo[key] = units
    return units


class PairPinner:
    """The ``pin_pair`` provider :func:`divergence_matrix` accepts.

    The pinned value is bit-identical to what
    :func:`repro.workflow.comparer.divergence_task` computes (integer sums
    and the same float division), so a pinned matrix equals an evaluated
    one by construction. Non-tree metrics never pin.
    """

    def __init__(self, spec: MetricSpec):
        self.spec = spec

    def pin_pair(self, a: IndexedCodebase, b: IndexedCodebase) -> Optional[float]:
        """The pair's divergence when it pins exactly, else ``None``."""
        if _tree_kind(self.spec) is None:
            return None
        ua = unit_entries(a, self.spec)
        ub = unit_entries(b, self.spec)
        if any(ua[r]["hash"] != ub[r]["hash"] for r in ua.keys() & ub.keys()):
            return None  # a real TED: not pinnable from geometry
        # an unmatched unit costs its own size; a matched one costs 0
        d = sum(ua[r]["size"] for r in ua.keys() - ub.keys())
        d += sum(ub[r]["size"] for r in ub.keys() - ua.keys())
        dmax = sum(
            pair_dmax(ua[r]["size"] if r in ua else 0, ub[r]["size"] if r in ub else 0)
            for r in ua.keys() | ub.keys()
        )
        obs.add("index.matrix.pinned")
        return float(d) / float(dmax) if dmax else 0.0


__all__ = ["PairPinner", "unit_entries"]
