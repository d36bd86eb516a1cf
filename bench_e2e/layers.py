"""Per-layer attribution of a traced pass, from outside the program.

:class:`LayerClock` replaces each layer's public entry points with timing
wrappers (module attributes and class methods, restored by
:meth:`LayerClock.uninstall`) and keeps a stack of open layers, so a
layer's *self* seconds exclude time spent in nested wrapped layers. Work
the program already counts is read from its own ``obs`` counters; work it
does not count (DP cells, keyroot subproblems) is computed here from the
trees handed to the kernels. Nothing under ``src/`` is changed.

Layers are named after their modules. ``moves`` is the end-to-end metric
a change to the layer should move; ``most`` / ``least`` name where the
layer does the most and the least work:

========= ============================================ ======= ===================
layer     entry points                                 moves   most / least
========= ============================================ ======= ===================
lang      C++/Fortran frontends and tree building      cold_s  corpus-index /
          (``index_*_unit``)                                   every warm pass
compiler  lowering to IR and IR trees                  cold_s  corpus-index /
                                                               every warm pass
exec      coverage runs and their profiles             cold_s  corpus-index /
                                                               tealeaf-cluster
indexer   registry and ``index_codebase`` glue         warm_s  corpus-index /
                                                               tealeaf-cluster
unitstore ``load_unit`` / ``save_unit``                warm_s, corpus-index warm /
                                                       cold_s  every cold pass
serde     artifact container reads and writes          warm_s  corpus-index warm /
                                                               tealeaf cold
cache     TED disk cache lookups, records, flushes     warm_s  matrix warm passes /
                                                               corpus-index
ted       ``ted`` / ``ted_many``                       cold_s  babelstream-heatmap
                                                               / corpus-index
cascade   ``cascade_distance``, ``BoundOracle``        cold_s  babelstream-heatmap
          stages                                               / warm passes
zs        ``zhang_shasha_distance``,                   cold_s, tealeaf cold /
          ``zhang_shasha_cross``                       RSS     corpus-index, warm
engine    ``DistanceEngine.map_tasks``,                cold_s  matrix cold passes /
          ``ChunkedPool.run``                                  corpus-index
metrics   SLOC/LLOC/Source/tree metrics, masks         warm_s  babelstream-heatmap
                                                               / corpus-index
comparer  divergence tasks, chunk warm-up,             warm_s  tealeaf warm /
          fingerprints, pair pinning                           corpus-index
analysis  clustering, heatmap assembly, rendering      both    small everywhere
bench     this module's bookkeeping (keyroot sums)     none    kernel passes
========= ============================================ ======= ===================

``warm.obs.overhead_s`` (median of traced minus untraced wall over warm
passes run in turn, see ``run.py``) and ``unattributed_s`` (pass wall
minus every layer's self seconds) move nothing; they say how far the
split can be trusted.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict


def keyroot_sums(root) -> tuple[int, int, int]:
    """``(|T|, L(T), R(T))`` of one tree.

    ``L(T)`` sums the subtree sizes of the root and of every node with a
    left sibling (Zhang–Shasha's keyroots, leftmost-path decomposition);
    ``R(T)`` does the same over nodes with a right sibling (the mirrored,
    rightmost-path decomposition). A pair's relevant subproblems are
    ``L(T1)·L(T2)`` one way and ``R(T1)·R(T2)`` the other.
    """
    sizes: dict[int, int] = {}
    left = right = 0
    stack = [(root, False)]
    while stack:
        node, done = stack.pop()
        kids = node.children
        if not done:
            stack.append((node, True))
            stack.extend((c, False) for c in kids)
            continue
        sizes[id(node)] = 1 + sum(sizes[id(c)] for c in kids)
        for c in kids[1:]:
            left += sizes[id(c)]
        for c in kids[:-1]:
            right += sizes[id(c)]
    n = sizes[id(root)]
    return n, left + n, right + n


class LayerClock:
    """Self-time stack plus work counts for one traced pass."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        #: longest single exact-kernel call
        self.zs_max_call_s = 0.0
        self._stack: list[list] = []  # [layer, start, nested seconds]
        self._patched: list[tuple[object, str, object, bool]] = []
        # id(root) -> (root, sums); the root is kept so its id cannot be reused
        self._sums: dict[int, tuple[object, tuple[int, int, int]]] = {}

    # -- the stack -----------------------------------------------------------

    def enter(self, layer: str) -> None:
        self._stack.append([layer, time.perf_counter(), 0.0])

    def leave(self) -> float:
        layer, start, nested = self._stack.pop()
        dt = time.perf_counter() - start
        self.self_s[layer] += dt - nested
        if self._stack:
            self._stack[-1][2] += dt
        return dt

    # -- wrapping ------------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        own = attr in vars(owner)
        self._patched.append((owner, attr, vars(owner).get(attr), own))
        setattr(owner, attr, wrapper)

    def wrap(self, owner, attr: str, layer: str, after=None, on_error=None) -> None:
        """Time ``owner.attr`` as ``layer``. ``after(args, result, dt)``
        and ``on_error()`` update work counts."""
        orig = getattr(owner, attr)
        clock = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            clock.enter(layer)
            try:
                result = orig(*args, **kwargs)
            except BaseException:
                clock.leave()
                if on_error is not None:
                    on_error()
                raise
            dt = clock.leave()
            if after is not None:
                after(args, result, dt)
            return result

        self._patch(owner, attr, wrapper)

    def wrap_generator(self, owner, attr: str, layer: str) -> None:
        """Time every step of a generator method (the oracle's stages run
        lazily, interleaved with the caller's loop)."""
        orig = getattr(owner, attr)
        clock = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            it = orig(*args, **kwargs)
            while True:
                clock.enter(layer)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    clock.leave()
                yield item

        self._patch(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig, own in reversed(self._patched):
            if own:
                setattr(owner, attr, orig)
            else:
                delattr(owner, attr)
        self._patched.clear()

    # -- work counts ---------------------------------------------------------

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] += value

    def _tree_sums(self, root) -> tuple[int, int, int]:
        hit = self._sums.get(id(root))
        if hit is None:
            hit = self._sums[id(root)] = (root, keyroot_sums(root))
        return hit[1]

    def kernel_pairs(self, pairs) -> None:
        """Add one exact-kernel batch to the ``zs.*`` work counts."""
        self.enter("bench")
        for t1, t2 in pairs:
            n1, l1, r1 = self._tree_sums(t1)
            n2, l2, r2 = self._tree_sums(t2)
            self.counts["zs.calls"] += 1
            self.counts["zs.cells"] += n1 * n2
            self.counts["zs.cells_left"] += l1 * l2
            self.counts["zs.cells_right"] += r1 * r2
        self.leave()

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer's public entry points (once per clock)."""
        m = importlib.import_module
        corpus = m("repro.corpus")
        registry = m("repro.corpus.registry")
        indexer = m("repro.workflow.indexer")
        comparer = m("repro.workflow.comparer")
        heatmap = m("repro.analysis.heatmap")
        tedmod = m("repro.distance.ted")
        zs_cross = m("repro.distance.zs_cross")
        treemetrics = m("repro.metrics.treemetrics")
        from repro.cache import TedCacheStore
        from repro.distance.bounds import BoundOracle
        from repro.distance.engine import DistanceEngine
        from repro.metricindex import PairPinner
        from repro.parallel import ChunkedPool
        from repro.workflow.codebase import IndexedCodebase

        w = self.wrap
        count = self.count

        # indexing side
        for owner in (corpus, registry):
            w(owner, "index_app", "indexer")
            w(owner, "index_model", "indexer")
        w(registry, "index_codebase", "indexer")
        for attr in ("index_cpp_unit", "index_fortran_unit"):
            w(indexer, attr, "lang", after=lambda a, r, dt: count("lang.units"))
        for attr in ("lower_unit", "bundle_to_tree", "lower_fortran"):
            w(indexer, attr, "compiler")

        def exec_done(a, r, dt):
            count("exec.runs")

        def exec_failed():
            count("exec.runs")
            count("exec.failed")

        w(indexer, "run_program", "exec", after=exec_done, on_error=exec_failed)
        w(m("repro.exec.ft_interpreter"), "run_fortran", "exec", after=exec_done,
          on_error=exec_failed)
        w(indexer, "profile_from_run", "exec")

        def load_done(a, r, dt):
            if r is not None:
                count("unitstore.loads")

        w(indexer, "load_unit", "unitstore.load", after=load_done)
        w(indexer, "save_unit", "unitstore.save", after=lambda a, r, dt: count("unitstore.saves"))
        artstore = m("repro.artifacts.store")
        w(artstore, "read_blob", "serde")
        w(artstore, "write_blob", "serde")

        # distance side
        def lookup_done(a, r, dt):
            count("cache.lookups")
            if r is not None:
                count("cache.hits")

        w(TedCacheStore, "lookup", "cache", after=lookup_done)
        w(TedCacheStore, "record", "cache")
        w(TedCacheStore, "flush", "cache")
        for owner in (tedmod, treemetrics):
            w(owner, "ted", "ted", after=lambda a, r, dt: count("ted.pairs"))
        w(tedmod, "ted_many", "ted", after=lambda a, r, dt: count("ted.pairs", len(a[0])))
        w(tedmod, "cascade_distance", "cascade")
        w(BoundOracle, "upper", "cascade")
        self.wrap_generator(BoundOracle, "lower_stages", "cascade")

        def pair_done(a, r, dt):
            self.zs_max_call_s = max(self.zs_max_call_s, dt)
            self.kernel_pairs([a[:2]])

        def cross_done(a, r, dt):
            self.zs_max_call_s = max(self.zs_max_call_s, dt)
            count("zs.cross_pairs", len(a[0]))
            self.kernel_pairs(a[0])

        w(tedmod, "zhang_shasha_distance", "zs", after=pair_done)
        w(zs_cross, "zhang_shasha_cross", "zs", after=cross_done)
        w(DistanceEngine, "map_tasks", "engine")
        w(ChunkedPool, "run", "engine")

        # consumers
        for mod, attrs in (
            (m("repro.metrics.sloc"), ("sloc",)),
            (m("repro.metrics.lloc"), ("lloc",)),
            (m("repro.metrics.source_dist"), ("source_distance",)),
            (treemetrics, ("tree_distance", "tree_ted_demands")),
        ):
            for attr in attrs:
                w(mod, attr, "metrics")
        w(IndexedCodebase, "mask", "metrics")
        w(comparer, "divergence", "comparer", after=lambda a, r, dt: count("comparer.cells"))
        for attr in ("divergence_matrix", "divergence_pair_task", "divergence_task",
                     "codebase_fingerprint"):
            w(comparer, attr, "comparer")
        for owner in (comparer, heatmap):
            # one call per scheduled chunk, on the serial path too
            w(owner, "divergence_prepare", "comparer",
              after=lambda a, r, dt: count("engine.chunks"))
        w(heatmap, "divergence_task", "comparer")
        w(PairPinner, "pin_pair", "comparer")
        w(m("repro.analysis.cluster"), "cluster_models", "analysis")
        w(heatmap, "divergence_heatmap", "analysis")
        ascii_viz = m("repro.viz.ascii")
        w(ascii_viz, "ascii_dendrogram", "analysis")
        w(ascii_viz, "ascii_heatmap", "analysis")


def _dir_bytes(root) -> int:
    total = 0
    for base, _dirs, files in os.walk(root):
        for f in files:
            total += os.path.getsize(os.path.join(base, f))
    return total


def layer_metrics(clock: LayerClock, counters: dict, root, wall_s: float) -> dict:
    """Flat per-layer metrics of one traced pass (names without the
    cold/warm prefix). ``counters`` are the program's ``obs`` counters."""
    s = clock.self_s
    c = clock.counts
    ctr = defaultdict(float, counters)
    pruned = sum(ctr[f"ted.pruned.{stage}"] for stage in ("stats", "histogram", "sequence"))
    calls = ctr["ted.cascade.calls"]
    return {
        "lang.s": s["lang"],
        "lang.units": c["lang.units"],
        "lang.tokens": ctr["lex.cpp.tokens"] + ctr["lex.fortran.tokens"],
        "compiler.s": s["compiler"],
        "exec.s": s["exec"],
        "exec.runs": c["exec.runs"],
        "exec.failed": c["exec.failed"],
        "indexer.self_s": s["indexer"],
        "unitstore.load_s": s["unitstore.load"],
        "unitstore.loads": c["unitstore.loads"],
        "unitstore.save_s": s["unitstore.save"],
        "unitstore.saves": c["unitstore.saves"],
        "serde.s": s["serde"],
        "artifacts.bytes": _dir_bytes(root),
        "cache.lookups": c["cache.lookups"],
        "cache.hits": c["cache.hits"],
        "cache.s": s["cache"],
        "ted.pairs": c["ted.pairs"],
        "ted.memo_hits": ctr["ted.cache.hit"],
        "ted.shortcuts": ctr["ted.shortcut"],
        "ted.s": s["ted"],
        "cascade.s": s["cascade"],
        "cascade.calls": calls,
        "cascade.pruned": pruned,
        "cascade.prune_ratio": pruned / calls if calls else 0.0,
        "zs.s": s["zs"],
        "zs.calls": c["zs.calls"],
        "zs.cross_pairs": c["zs.cross_pairs"],
        "zs.cells": c["zs.cells"],
        "zs.cells_left": c["zs.cells_left"],
        "zs.cells_right": c["zs.cells_right"],
        "zs.max_call_s": clock.zs_max_call_s,
        "engine.self_s": s["engine"],
        "engine.chunks": c["engine.chunks"],
        "engine.waves": ctr["engine.waves"],
        "metrics.self_s": s["metrics"],
        "comparer.self_s": s["comparer"],
        "comparer.cells": c["comparer.cells"],
        "metricindex.pinned": ctr["index.matrix.pinned"],
        "analysis.s": s["analysis"],
        "bench.s": s["bench"],
        "wall_s": wall_s,
        "unattributed_s": wall_s - sum(s.values()),
    }
