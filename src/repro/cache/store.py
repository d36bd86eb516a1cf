"""Persistent, content-addressed TED result store.

Repeat figure runs (and different figures over the same corpus) revisit the
same tree pairs; the in-process memo in :mod:`repro.distance.ted` only helps
within one process lifetime. This store memoises unit-cost TED distances on
disk so a warm run performs zero Zhang–Shasha evaluations.

Key contract (pinned in DESIGN.md §"TED cache key contract")
------------------------------------------------------------
An entry is keyed by the *canonical tree-pair hash*: the two structural
hashes (:func:`repro.trees.hashing.structural_hash`) sorted lexicographically
and joined with ``:``. The structural hash is computed over the tree as the
metric pipeline sees it — i.e. *after* name normalisation, system-include
stripping, coverage masking and inlining — so every metric spec and
normalisation flag that changes the compared tree changes the key. What the
hash cannot encode rides in ``KEY_SPEC`` (cost model + kernel semantics) and
in the payload ``schema`` version; either mismatching invalidates the entry.

Layout
------
The store is the ``ted`` namespace of the generic artifact layer
(:class:`repro.artifacts.ShardMapStore`): up to 256 shard files named
``ted-<xx>.svc`` (``xx`` = first two hex digits of the smaller hash), each a
standard ``SVALEDB`` container whose payload is::

    {"schema": "repro.cache/v1", "keyspec": KEY_SPEC, "entries": {key: d}}

Sharding, pending-write buffering, atomic read-merge-replace flushes and
the strict/lenient read split all live in the artifact layer.
"""

from __future__ import annotations

from typing import Optional

from repro.artifacts import ShardMapStore

#: Payload schema version; bump when the entry layout changes. Old shards
#: are silently invalidated (treated as empty) on the lenient read path.
SCHEMA = "repro.cache/v1"

#: What the structural hashes cannot encode: the cost model and the kernel
#: family whose distances the entries hold. Part of the stable key contract.
KEY_SPEC = "ted:unit:zs"


def pair_key(h1: str, h2: str) -> str:
    """Canonical cache key for an unordered pair of structural hashes.

    Unit-cost TED is symmetric, so the pair is stored once under the sorted
    order.
    """
    return f"{h1}:{h2}" if h1 <= h2 else f"{h2}:{h1}"


class TedCacheStore(ShardMapStore):
    """On-disk memo of unit-cost TED distances, sharded by hash prefix."""

    NAMESPACE = "ted"
    SCHEMA = SCHEMA
    KEY_SPEC = KEY_SPEC
    DESCRIPTION = "TED cache shard"
    KIND = "cache"
    INVALID_COUNTER = "cache.disk.invalid"

    def lookup(self, h1: str, h2: str) -> Optional[float]:
        """Stored distance for the pair, or ``None`` on a miss."""
        return self.get(pair_key(h1, h2))

    def record(self, h1: str, h2: str, distance: float) -> None:
        """Buffer one distance for the next :meth:`flush`."""
        self.put(pair_key(h1, h2), float(distance))
