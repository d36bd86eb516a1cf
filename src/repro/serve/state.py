"""Shared in-memory hot tier for the serve daemon.

Three tiers, cheapest first, all keyed by content so they self-invalidate:

* **divergence memo** — task-key → value, where the key is the
  :func:`repro.workflow.comparer.pair_task_key` string the batcher also
  dedupes by: it embeds the metric label and both codebase content
  fingerprints, so a key can only ever name one value. A warm query
  resolves here without touching the batcher, the engine or any kernel;
* **indexed codebases** — the registry's process-wide cache
  (:func:`repro.corpus.registry.index_model`), one entry per
  ``(app, model, coverage, strict)``. Backed by the incremental index
  artifacts in the shared artifact root (``repro/artifacts/``), so even a
  *cold* daemon start replays persisted per-unit frontends instead of
  re-lexing;
* **TED disk memo** — the engine's :class:`TedCacheStore`, preloaded into
  memory at warm-up (:meth:`ShardMapStore.preload`) so first-query shard
  reads never show up in a latency percentile.

Mutation discipline: codebase indexing happens only on the daemon's single
engine thread; the memo dict is written from the event-loop thread after a
wave resolves. The memo is guarded by a lock so ``/v1/stats`` can snapshot
it while the engine thread invalidates.

Invalidation (pinned in DESIGN.md §"Serve contract"): keys are content
fingerprints, so stale reads are impossible — a changed corpus produces
*new* keys and simply stops hitting the old entries. ``invalidate()``
(``POST /v1/invalidate``) exists to bound memory and to force re-indexing
after an in-place corpus edit during development; it drops every tier
including the process-wide registry and TED memos.

Bounding: the memo is LRU-capped at :data:`MEMO_MAX_ENTRIES`. Under
varied traffic the least-recently-used entry is evicted at the cap
(``serve.hot.evicted.memo``) so the always-on daemon's resident set cannot
grow without bound; an evicted value is only a latency cost, never a
correctness one, because the TED disk memo replays it on the next miss.
The indexed codebases need no cap: the registry holds at most one per
corpus port and mode.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Optional, Sequence

from repro import obs
from repro.corpus.registry import (
    APPS,
    app_models,
    cached_codebases,
    clear_index_cache,
    index_model,
)
from repro.distance.ted import clear_ted_cache
from repro.util.errors import ReproError
from repro.workflow.codebase import IndexedCodebase

#: LRU cap on divergence-memo entries: it bounds an always-on daemon's
#: resident set, and an eviction costs only a recompute.
MEMO_MAX_ENTRIES = 65536


class ServeState:
    """The daemon's shared hot tier (see module docstring)."""

    def __init__(self, engine, artifacts=None, strict: bool = False):
        self.engine = engine
        self.artifacts = artifacts
        self.strict = strict
        self._lock = threading.Lock()
        self._memo: OrderedDict[str, Any] = OrderedDict()
        self._evicted_memo = 0

    # -- indexed codebases (engine thread only) -----------------------------

    def codebase(self, app: str, model: str, coverage: bool) -> IndexedCodebase:
        """Indexed codebase from the registry's cache, indexing on miss.

        Must be called on the engine thread when a miss is possible —
        indexing is seconds of work that would stall the event loop.
        Unknown app/model names raise :class:`ReproError` subclasses, which
        the endpoint layer maps to 400s.
        """
        return index_model(
            app, model, coverage=coverage, strict=self.strict, artifacts=self.artifacts
        )

    def codebases(
        self, app: str, models: Sequence[str], coverage: bool
    ) -> list[IndexedCodebase]:
        return [self.codebase(app, m, coverage) for m in models]

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
            while len(self._memo) > MEMO_MAX_ENTRIES:
                self._memo.popitem(last=False)
                self._evicted_memo += 1
                obs.add("serve.hot.evicted.memo")

    # -- warm-up / invalidation / stats -------------------------------------

    def warm(self, apps: Sequence[str]) -> dict[str, int]:
        """Index every model of the named apps (``all`` = every app) and
        preload the TED disk memo; returns what got resident.

        Runs on the engine thread at daemon start so the first real query
        already hits a warm tier.
        """
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
        return {"apps": len(names), "codebases": indexed, "ted_entries": preloaded}

    def invalidate(self) -> dict[str, int]:
        """Drop every hot-tier entry (and the process-wide registry/TED
        memos behind them); returns the eviction counts."""
        dropped = {"codebases": cached_codebases()}
        with self._lock:
            dropped["memo"] = len(self._memo)
            self._memo.clear()
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
                "codebases": cached_codebases(),
                "memo_entries": len(self._memo),
                "max_entries": MEMO_MAX_ENTRIES,
                "evicted": {"memo": self._evicted_memo},
                "jobs": getattr(self.engine, "jobs", 1),
                "strict": self.strict,
                "incremental": self.artifacts is not None,
                "ted_cache": getattr(self.engine, "cache", None) is not None,
            }
