"""Public TED API (paper §III-B).

``ted(t1, t2)`` returns the exact tree edit distance under the paper's
unit-cost model; ``ted_normalized`` divides by ``dmax`` (Eq. 7): the larger
of the two tree sizes (:func:`pair_dmax`). Both the distance and ``dmax``
are symmetric, so the normalised divergence is too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro import obs

# zs_cross is reached through its module so that a wrapper installed on
# zs_cross.zhang_shasha_cross (bench_e2e/layers.py) is seen at call time
from repro.distance import zs_cross
from repro.distance.cascade import cascade_distance
from repro.distance.zhang_shasha import zhang_shasha_distance, zhang_shasha_generic
from repro.trees.hashing import cached_structural_hash
from repro.trees.node import Node


@dataclass(frozen=True)
class Cost:
    """Per-operation TED cost model.

    The paper uses unit weight one for all operations but explicitly leaves
    room for weighted variants ("adding new code may have a different
    productivity impact than removing existing code").
    """

    delete: Callable[[Node], float]
    insert: Callable[[Node], float]
    relabel: Callable[[Node, Node], float]

    def is_unit(self) -> bool:
        return False


class UnitCost(Cost):
    """The paper's cost model: every operation costs one."""

    def __init__(self) -> None:
        super().__init__(
            delete=lambda n: 1.0,
            insert=lambda n: 1.0,
            relabel=lambda a, b: 0.0 if a.label == b.label else 1.0,
        )

    def is_unit(self) -> bool:
        return True


def pair_dmax(size_a: int, size_b: int) -> int:
    """Eq. (7)'s budget for one matched unit pair: the larger of the two
    sizes. An unmatched unit passes 0 for its absent side and so
    contributes its own size. The one ``dmax`` definition every relative
    metric and the pair pinner accumulate (DESIGN.md "Eq. 7
    normalisation")."""
    return max(size_a, size_b)


@dataclass(frozen=True)
class TedResult:
    """Outcome of one TED computation."""

    distance: float
    size1: int
    size2: int
    #: True when the identical-hash shortcut fired and no DP ran.
    shortcut: bool = False
    #: True when the distance was served from the memo cache (distinct from
    #: ``shortcut``: a cached pair did run the DP once, on a previous call).
    cached: bool = False
    #: Cascade stage that pinned the distance without running the DP
    #: ("stats" / "histogram" / "sequence"), or "" when the DP ran or the
    #: result came from a cache. The value is exact either way.
    pruned: str = ""

    @property
    def dmax(self) -> int:
        """Maximum divergence per Eq. (7): the larger of the two tree sizes."""
        return pair_dmax(self.size1, self.size2)

    @property
    def normalized(self) -> float:
        """distance / dmax; ``dmax`` is 0 only when both trees are empty."""
        return self.distance / self.dmax if self.dmax else 0.0


#: Memo of unit-cost distances keyed by structural-hash pairs. Trees are
#: treated as frozen once they enter the metric pipeline; callers who mutate
#: trees between calls must invalidate via :func:`clear_ted_cache`.
_CACHE: dict[tuple[str, str], float] = {}
_CACHE_LIMIT = 65536

#: Optional persistent second-level cache (duck-typed to
#: :class:`repro.cache.TedCacheStore`: ``lookup(h1, h2)`` / ``record(h1, h2,
#: d)``). Consulted on memo misses in the unit-cost path; installed by the
#: distance engine (and its pool workers) around matrix sweeps.
_DISK_CACHE = None


def set_disk_cache(store) -> None:
    """Install (or with ``None``, remove) the persistent TED cache."""
    global _DISK_CACHE
    _DISK_CACHE = store


def get_disk_cache():
    """The currently installed persistent cache, if any."""
    return _DISK_CACHE


def clear_ted_cache() -> None:
    """Drop all memoised TED results."""
    _CACHE.clear()


def cache_stats() -> dict[str, int]:
    """Current memo size and limit. Hit, miss, shortcut and eviction counts
    are the ``ted.cache.*`` / ``ted.shortcut`` obs counters."""
    return {"size": len(_CACHE), "limit": _CACHE_LIMIT}


def _cache_insert(key: tuple[str, str], d: float) -> None:
    """Insert both key orders (unit-cost TED is symmetric) without ever
    letting the cache exceed ``_CACHE_LIMIT``.

    The old ``len(_CACHE) < _CACHE_LIMIT`` guard checked *before* inserting
    two entries, so a full cache could grow to limit+1; evicting oldest-first
    (dict preserves insertion order) keeps the cache bounded and lets
    long-running matrix sweeps keep caching fresh pairs instead of freezing
    the cache at whatever filled it first.
    """
    rev = (key[1], key[0])
    needed = 2 if rev != key and rev not in _CACHE else 1
    evicted = 0
    while len(_CACHE) > _CACHE_LIMIT - needed:
        _CACHE.pop(next(iter(_CACHE)))
        evicted += 1
    if evicted:
        obs.add("ted.cache.evicted", evicted)
    _CACHE[key] = d
    if rev != key:
        _CACHE[rev] = d


def _record(key: tuple[str, str], d: float) -> None:
    """Publish one freshly computed unit-cost distance to memo + disk."""
    _cache_insert(key, d)
    if _DISK_CACHE is not None:
        _DISK_CACHE.record(key[0], key[1], d)
        if obs.enabled():
            obs.add("cache.disk.miss")
    if obs.enabled():
        obs.add("ted.cache.miss")
        obs.gauge("ted.cache.size", len(_CACHE))


@obs.traced("ted")
def ted(t1: Node, t2: Node, cost: Optional[Cost] = None) -> TedResult:
    """Exact TED between two trees: a one-pair :func:`ted_many`."""
    return ted_many([(t1, t2)], cost)[0]


#: ``ted_many`` packs two or more survivors below this cell count (|T1|·|T2|)
#: into one cross-pair sweep; at or above it a single pair already fills the
#: vector width of the per-pair row sweep.
_CROSS_MAX_CELLS = 30_000


def ted_many(pairs: list[tuple[Node, Node]], cost: Optional[Cost] = None) -> list[TedResult]:
    """Exact TED for every ``(t1, t2)`` pair, in input order.

    Unit costs run each pair through the identical-hash shortcut, the memo,
    the persistent disk cache and the pruning cascade (stats → histogram →
    sequence bounds; see :mod:`repro.distance.cascade`), memoised by
    structural hash: divergence matrices revisit the same tree pairs across
    clustering, heatmaps and navigation charts. Structurally identical
    trees short-circuit to zero (shared boilerplate between models "simply
    evaluate[s] to a divergence of zero", §V). Duplicate pairs (by
    structural-hash identity, either order) are computed once.

    Survivors go to an exact kernel: two or more below ``_CROSS_MAX_CELLS``
    are packed into one cross-pair row sweep (:mod:`repro.distance.zs_cross`),
    every other pair runs the per-pair row sweep
    (:func:`zhang_shasha_distance`). Results land in the memo, so a later
    call on any of these pairs is a cache hit; chunk-level callers (the
    pool ``prepare`` hook, the serve warm path) use that to expose a whole
    chunk's pairs at once.

    Custom costs use the pure-Python generic kernel, uncached — and skip
    the shortcut, the memo and the cascade entirely: under a non-unit model
    ``relabel(a, a)`` may legitimately be nonzero, so structural identity
    does not imply distance zero, and the cached unit distances are simply
    for a different metric.
    """
    if cost is not None and not cost.is_unit():
        return [
            TedResult(
                zhang_shasha_generic(t1, t2, cost.delete, cost.insert, cost.relabel),
                t1.size(),
                t2.size(),
            )
            for t1, t2 in pairs
        ]
    collecting = obs.enabled()
    sizes = [(t1.size(), t2.size()) for t1, t2 in pairs]
    results: list[Optional[TedResult]] = [None] * len(pairs)
    fresh: dict[tuple[str, str], list[int]] = {}
    for idx, (t1, t2) in enumerate(pairs):
        n1, n2 = sizes[idx]
        h1 = cached_structural_hash(t1)
        h2 = cached_structural_hash(t2)
        if h1 == h2:
            if collecting:
                obs.add("ted.shortcut")
                obs.add("ted.pruned.hash")
            results[idx] = TedResult(0.0, n1, n2, shortcut=True)
            continue
        key = (h1, h2)
        if key in _CACHE:
            if collecting:
                obs.add("ted.cache.hit")
            results[idx] = TedResult(_CACHE[key], n1, n2, cached=True)
            continue
        rev = (h2, h1)
        if key in fresh or rev in fresh:
            # duplicate within this batch: fold onto the first occurrence
            fresh[key if key in fresh else rev].append(idx)
            continue
        if _DISK_CACHE is not None:
            stored = _DISK_CACHE.lookup(h1, h2)
            if stored is not None:
                _cache_insert(key, stored)
                if collecting:
                    obs.add("cache.disk.hit")
                results[idx] = TedResult(stored, n1, n2, cached=True)
                continue
        fresh[key] = [idx]

    small: list[tuple[tuple[str, str], int]] = []  # (key, first idx)
    for key, idxs in fresh.items():
        idx = idxs[0]
        t1, t2 = pairs[idx]
        n1, n2 = sizes[idx]
        hit = cascade_distance(t1, t2, n1, n2)
        if hit is not None:
            d, stage = hit
            _record(key, d)
            results[idx] = TedResult(d, n1, n2, pruned=stage)
        elif n1 * n2 < _CROSS_MAX_CELLS:
            small.append((key, idx))
        else:
            d = float(zhang_shasha_distance(t1, t2))
            _record(key, d)
            results[idx] = TedResult(d, n1, n2)

    if len(small) > 1:
        dists = zs_cross.zhang_shasha_cross([pairs[idx] for _, idx in small])
    else:
        # one pair packed alone is slower in the cross kernel
        dists = [zhang_shasha_distance(*pairs[idx]) for _, idx in small]
    for (key, idx), dist in zip(small, dists):
        d = float(dist)
        _record(key, d)
        results[idx] = TedResult(d, *sizes[idx])

    # fan duplicate-pair results back out (sizes are per-occurrence)
    for idxs in fresh.values():
        first = results[idxs[0]]
        for idx in idxs[1:]:
            results[idx] = TedResult(first.distance, *sizes[idx], cached=True)
    return results  # type: ignore[return-value]


def ted_normalized(t1: Node, t2: Node) -> float:
    """Normalised divergence d/dmax of one tree pair (symmetric)."""
    return ted(t1, t2).normalized
