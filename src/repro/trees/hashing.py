"""Deterministic structural hashing of trees.

Used for cheap identical-tree detection (divergence of zero without running
TED — the paper notes boilerplate shared between models "simply evaluate[s]
to a divergence of zero as the trees will be identical") and for Codebase DB
content addressing.
"""

from __future__ import annotations

import hashlib

from repro.trees.node import Node


def structural_hash(root: Node) -> str:
    """SHA-256 over the (label, kind, shape) structure; ignores spans/attrs.

    Computed iteratively over the postorder so deep trees don't recurse.
    """
    memo: dict[int, str] = {}
    for node in root.postorder():
        h = hashlib.sha256()
        h.update(node.label.encode())
        h.update(b"\x00")
        h.update(node.kind.encode())
        for c in node.children:
            h.update(b"\x01")
            h.update(memo[id(c)].encode())
        memo[id(node)] = h.hexdigest()
    return memo[id(root)]


def cached_structural_hash(root: Node) -> str:
    """Structural hash memoised on the root's attrs (``_shash``).

    Metric-pipeline trees are frozen once built; callers who mutate a tree
    after it has been hashed must drop the ``_shash`` attr (or rebuild the
    tree, which is the idiomatic path). Shared by the TED memo and disk
    cache, the serve memo's codebase fingerprints and unit-artifact
    fingerprints so they all agree on tree identity.
    """
    h = root.attrs.get("_shash")
    if h is None:
        h = structural_hash(root)
        root.attrs["_shash"] = h
    return h
