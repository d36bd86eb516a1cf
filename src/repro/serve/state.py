"""Shared in-memory hot tier for the serve daemon.

Three tiers, cheapest first, all keyed by content so they self-invalidate:

* **divergence memo** — task-key → value, where the key is the same
  :func:`repro.workflow.comparer.pair_task_key` string the engine uses
  for checkpoints: it embeds the metric label and both codebase content
  fingerprints, so a key can only ever name one value. A warm query
  resolves here without touching the batcher, the engine or any kernel;
* **indexed codebases** — ``(app, model, coverage)`` → ``IndexedCodebase``,
  the unit-artifact tier. Backed by the incremental index artifacts in the
  shared artifact root (``repro/artifacts/``), so even a *cold* daemon
  start replays persisted per-unit frontends instead of re-lexing;
* **TED disk memo** — the engine's :class:`TedCacheStore`, preloaded into
  memory at warm-up (:meth:`ShardMapStore.preload`) so first-query shard
  reads never show up in a latency percentile;
* **metric indexes** — ``(app, metric, include_system)`` →
  :class:`repro.metricindex.MetricIndex`, the ``/v1/nearest`` VP-tree
  tier. Backed by the ``vpindex`` artifact namespace (content-fingerprint
  self-invalidating), built on ``--warm`` or first query, LRU-capped by
  ``max_indexes``.

Mutation discipline: codebase indexing happens only on the daemon's single
engine thread; the memo dict is written from the event-loop thread after a
wave resolves. Every structure is guarded by one lock so ``/v1/stats`` can
snapshot from the event loop while the engine thread indexes.

Invalidation (pinned in DESIGN.md §"Serve contract"): keys are content
fingerprints, so stale reads are impossible — a changed corpus produces
*new* keys and simply stops hitting the old entries. ``invalidate()``
(``POST /v1/invalidate``) exists to bound memory and to force re-indexing
after an in-place corpus edit during development; it drops every tier
including the process-wide registry and TED memos.

Bounding: both in-memory tiers are LRU-capped (``max_codebases`` /
``max_entries``; 0 or ``None`` = unbounded). Under varied traffic the
least-recently-used entry is evicted at the cap (``serve.hot.evicted.*``
counters) so the always-on daemon's resident set cannot grow without
bound; evicted entries are only a latency cost, never a correctness one,
because the backing artifact stores replay them on the next miss.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Optional, Sequence

from repro import obs
from repro.corpus.registry import (
    APPS,
    app_models,
    clear_index_cache,
    index_model,
)
from repro.distance.ted import clear_ted_cache
from repro.util.errors import ReproError
from repro.workflow.codebase import IndexedCodebase


class ServeState:
    """The daemon's shared hot tier (see module docstring)."""

    def __init__(
        self,
        engine,
        artifacts=None,
        strict: bool = False,
        jobs: int = 1,
        max_codebases: Optional[int] = None,
        max_entries: Optional[int] = None,
        max_indexes: Optional[int] = None,
    ):
        self.engine = engine
        self.artifacts = artifacts
        self.strict = strict
        self.jobs = jobs
        self.max_codebases = int(max_codebases) if max_codebases else 0
        self.max_entries = int(max_entries) if max_entries else 0
        self.max_indexes = int(max_indexes) if max_indexes else 0
        self._lock = threading.Lock()
        self._codebases: OrderedDict[tuple[str, str, bool], IndexedCodebase] = OrderedDict()
        self._memo: OrderedDict[str, Any] = OrderedDict()
        #: (app, metric label, include_system) -> MetricIndex (the nearest
        #: query tier; built on --warm / first tree-metric nearest query)
        self._indexes: OrderedDict[tuple[str, str, bool], Any] = OrderedDict()
        self._evicted = {"codebases": 0, "memo": 0, "indexes": 0}

    # -- codebase tier (engine thread only for misses) ----------------------

    def codebase(self, app: str, model: str, coverage: bool) -> IndexedCodebase:
        """Indexed codebase from the hot tier, indexing on miss.

        Must be called on the engine thread when a miss is possible —
        indexing is seconds of work that would stall the event loop.
        Unknown app/model names raise :class:`ReproError` subclasses, which
        the endpoint layer maps to 400s.
        """
        key = (app, model, coverage)
        with self._lock:
            hit = self._codebases.get(key)
            if hit is not None:
                self._codebases.move_to_end(key)
        if hit is not None:
            obs.add("serve.hot.codebase_hit")
            return hit
        obs.add("serve.hot.codebase_miss")
        cb = index_model(
            app,
            model,
            coverage=coverage,
            strict=self.strict,
            artifacts=self.artifacts,
            jobs=self.jobs,
        )
        with self._lock:
            self._codebases[key] = cb
            self._codebases.move_to_end(key)
            while self.max_codebases and len(self._codebases) > self.max_codebases:
                self._codebases.popitem(last=False)
                self._evicted["codebases"] += 1
                obs.add("serve.hot.evicted.codebases")
        return cb

    def codebases(
        self, app: str, models: Sequence[str], coverage: bool
    ) -> list[IndexedCodebase]:
        return [self.codebase(app, m, coverage) for m in models]

    # -- metric-index tier (engine thread only for misses) -------------------

    def metric_index(self, app: str, spec) -> Any:
        """Resident :class:`~repro.metricindex.MetricIndex` for ``app``
        under ``spec``, building (or replaying the ``vpindex`` artifact and
        refreshing it against the live corpus) on miss.

        Must run on the engine thread when a miss is possible — a cold
        build evaluates real tree distances. Same invalidation discipline
        as the other tiers: artifact replay self-invalidates through
        content fingerprints, and ``invalidate()`` drops residents.
        """
        from repro.metricindex import (
            MetricIndex,
            VpIndexStore,
            load_index,
            save_index,
        )

        key = (app, spec.label, bool(spec.include_system))
        with self._lock:
            hit = self._indexes.get(key)
            if hit is not None:
                self._indexes.move_to_end(key)
        if hit is not None:
            obs.add("serve.hot.index_hit")
            return hit
        obs.add("serve.hot.index_miss")
        codebases = {
            m: self.codebase(app, m, spec.coverage) for m in app_models(app)
        }
        store = (
            VpIndexStore(self.artifacts.root) if self.artifacts is not None else None
        )
        # a cold build/refresh evaluates tree distances inline; the cache
        # session gives them the same disk memo the wave runner installs
        with self.engine.cache_session():
            index = None
            if store is not None:
                index = load_index(store, app, spec)
            if index is not None:
                refreshed = index.refresh(codebases)
                dirty = any(refreshed.values())
            else:
                index = MetricIndex.build(app, codebases, spec)
                dirty = True
        if store is not None and dirty:
            save_index(store, index)
        with self._lock:
            self._indexes[key] = index
            self._indexes.move_to_end(key)
            while self.max_indexes and len(self._indexes) > self.max_indexes:
                self._indexes.popitem(last=False)
                self._evicted["indexes"] += 1
                obs.add("serve.hot.evicted.indexes")
        return index

    def peek_index(self, app: str, spec) -> Optional[Any]:
        """Resident index or ``None`` — never builds. The cluster path uses
        this so candidate pinning is free when the index is warm and
        silently absent when it is not."""
        key = (app, spec.label, bool(spec.include_system))
        with self._lock:
            hit = self._indexes.get(key)
            if hit is not None:
                self._indexes.move_to_end(key)
        return hit

    # -- divergence memo (event-loop thread) --------------------------------

    def lookup(self, key: str) -> Optional[Any]:
        with self._lock:
            value = self._memo.get(key)
            if value is not None:
                self._memo.move_to_end(key)
        obs.add("serve.memo.hit" if value is not None else "serve.memo.miss")
        return value

    def remember(self, key: str, value: Any) -> None:
        with self._lock:
            self._memo[key] = value
            self._memo.move_to_end(key)
            while self.max_entries and len(self._memo) > self.max_entries:
                self._memo.popitem(last=False)
                self._evicted["memo"] += 1
                obs.add("serve.hot.evicted.memo")

    # -- warm-up / invalidation / stats -------------------------------------

    def warm(self, apps: Sequence[str]) -> dict[str, int]:
        """Index every model of the named apps (``all`` = every app) and
        preload the TED disk memo; returns what got resident.

        Runs on the engine thread at daemon start so the first real query
        already hits a warm tier.
        """
        from repro.workflow.comparer import parse_metric

        names = sorted(APPS) if list(apps) == ["all"] else list(apps)
        indexed = 0
        for app in names:
            if app not in APPS:
                raise ReproError(f"unknown app {app!r} in --warm; have {sorted(APPS)}")
            for model in app_models(app):
                self.codebase(app, model, coverage=False)
                indexed += 1
        preloaded = 0
        cache = getattr(self.engine, "cache", None)
        if cache is not None:
            preloaded = cache.preload()
        # metric-index tier: the default nearest-query metric per warmed app,
        # so the first /v1/nearest hits a resident VP tree
        spec = parse_metric("Tsem")
        indexes = 0
        for app in names:
            self.metric_index(app, spec)
            indexes += 1
        return {
            "apps": len(names),
            "codebases": indexed,
            "ted_entries": preloaded,
            "indexes": indexes,
        }

    def invalidate(self) -> dict[str, int]:
        """Drop every hot-tier entry (and the process-wide registry/TED
        memos behind them); returns the eviction counts."""
        with self._lock:
            dropped = {
                "codebases": len(self._codebases),
                "memo": len(self._memo),
                "indexes": len(self._indexes),
            }
            self._codebases.clear()
            self._memo.clear()
            self._indexes.clear()
        clear_index_cache()
        clear_ted_cache()
        cache = getattr(self.engine, "cache", None)
        if cache is not None:
            cache.drop_loaded()
        obs.add("serve.hot.invalidations")
        return dropped

    def stats(self) -> dict[str, Any]:
        with self._lock:
            return {
                "codebases": len(self._codebases),
                "memo_entries": len(self._memo),
                "indexes": len(self._indexes),
                "max_codebases": self.max_codebases,
                "max_entries": self.max_entries,
                "max_indexes": self.max_indexes,
                "evicted": dict(self._evicted),
                "jobs": self.jobs,
                "strict": self.strict,
                "incremental": self.artifacts is not None,
                "ted_cache": getattr(self.engine, "cache", None) is not None,
            }
