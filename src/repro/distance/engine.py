"""Fault-tolerant parallel distance-matrix engine with cache + checkpoints.

The paper's compare step is the cartesian product of all models (§V-A) —
O(n²) divergence evaluations whose cost PR 1's spans showed to dominate
every figure. On production corpora that is a multi-minute-to-multi-hour
run, so this engine schedules the pair list *defensively* on top of the
shared :class:`repro.parallel.ChunkedPool` (serial by default, fork pool
for ``jobs > 1``, per-chunk watchdog deadlines, capped-backoff retries,
chaos-hook fault injection — see :mod:`repro.parallel.pool` for that
contract; the engine keeps its historical ``engine.*`` counter names via
the pool's counter prefix) and adds the distance-specific layers:

* **a persistent TED cache** (:class:`repro.cache.TedCacheStore`) when one
  is attached: the engine installs it in the distance layer (and attaches
  a fresh store handle in every pool worker via the pool's setup hook) for
  the duration of the run and flushes buffered writes on exit, so warm
  runs perform zero Zhang–Shasha evaluations;
* **a checkpoint** (:class:`repro.ckpt.CheckpointStore`) when one is
  attached and the caller supplies stable task keys: completed task values
  are periodically flushed to an atomic ``repro.ckpt/v1`` file, and
  ``resume=True`` reloads them so an interrupted run recomputes only
  unfinished work. SIGTERM is mapped to :class:`KeyboardInterrupt` during
  the run, and any interrupt terminates the pool, flushes cache +
  checkpoint, emits a ``distance/interrupted`` diagnostic naming the
  resumable checkpoint, and re-raises;
* **degradation semantics**: a chunk that exhausts its retries degrades to
  a ``distance/chunk-failed`` diagnostic with ``fail_value`` entries
  instead of aborting the run — unless ``strict``, which restores
  fail-fast.

Counters: ``ted.pairs`` (tasks scheduled), ``engine.chunks``,
``engine.workers``, ``engine.retries``, ``engine.chunk_timeouts``,
``engine.worker_deaths``, ``engine.chunks_failed``,
``ckpt.saved/loaded/invalid``, plus the ``cache.disk.hit/miss`` pair
recorded by the distance layer. Workers collect counters in-process and the
parent merges them, so ``--profile`` output is complete either way.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Callable, Optional, Sequence

from repro import diag, obs

# NB: function imports, not ``import repro.distance.ted as ...`` — the
# package re-exports the ``ted`` *function* under the module's name, so any
# attribute-style module reference resolves to the function instead.
from repro.ckpt.store import run_key_for
from repro.distance.ted import get_disk_cache, set_disk_cache
from repro.parallel.pool import ChunkedPool, sigterm_as_interrupt
from repro.util.errors import ReproError


def _flush_quietly(store) -> None:
    """Flush cache writes; a failing cache degrades the run, never kills it.

    Broad on purpose: a corrupted pending-write buffer surfaces as
    ``SerdeError``/``ValueError``/``TypeError`` from the serializer rather
    than ``OSError`` — any of them escaping here would kill an otherwise
    healthy run at exit. ``KeyboardInterrupt`` (a ``BaseException``) still
    propagates so Ctrl-C cannot be swallowed.
    """
    try:
        store.flush()
    except Exception as e:
        obs.add("cache.disk.flush_errors")
        diag.error("cache/flush-failed", f"TED cache flush failed: {e!r}")


# ---------------------------------------------------------------------------
# Worker hooks (staged into pool workers by fork inheritance)
# ---------------------------------------------------------------------------


def _make_worker_setup(cache_root: Optional[str]) -> Callable[[], Any]:
    """Build the per-worker setup hook: attach a fresh store handle to the
    shared cache directory (fresh so no parent pending-write buffers are
    inherited). Returns ``False`` to flag degraded init — an unreadable or
    corrupt cache directory runs cache-off, visibly, via the
    ``engine.worker_init_errors`` counter, not silently."""

    def _setup():
        if cache_root is None:
            set_disk_cache(None)
            return True
        try:
            from repro.cache.store import TedCacheStore

            set_disk_cache(TedCacheStore(cache_root))
        except (OSError, ReproError):
            # Unreadable or corrupt cache directory: run cache-off.
            # Anything else (a genuine bug) propagates — better a loud
            # crash in CI than a silently cache-less run.
            set_disk_cache(None)
            return False
        return True

    return _setup


def _worker_teardown() -> None:
    """End-of-chunk hook: flush the worker's disk-cache writes so they land
    inside the chunk's counter-collect window."""
    disk = get_disk_cache()
    if disk is not None:
        _flush_quietly(disk)


# ---------------------------------------------------------------------------
# Checkpoint session (one map_tasks call against one CheckpointStore)
# ---------------------------------------------------------------------------


class _CkptSession:
    """Progress tracker for one run: buffers completed entries and flushes
    them to the store periodically and on interrupt."""

    def __init__(self, store, keys: Sequence[str], interval_s: float):
        self.store = store
        self.keys = list(keys)
        self.run_key = run_key_for(self.keys, store.keyspec)
        self.interval_s = interval_s
        self.entries: dict[str, Any] = {}
        self._dirty = False
        self._last_save = time.monotonic()

    @property
    def path(self):
        return self.store.path_for(self.run_key)

    def load_into(self, results: list, done: list[bool]) -> int:
        """Adopt completed values from a previous run's checkpoint."""
        stored = self.store.load(self.run_key)
        reused = 0
        for i, key in enumerate(self.keys):
            if key in stored:
                results[i] = stored[key]
                done[i] = True
                self.entries[key] = stored[key]
                reused += 1
        if reused:
            obs.add("ckpt.loaded", reused)
        return reused

    def note_done(self, index: int, value: Any) -> None:
        self.entries[self.keys[index]] = value
        self._dirty = True
        self.maybe_save()

    def maybe_save(self) -> None:
        if self._dirty and time.monotonic() - self._last_save >= self.interval_s:
            self.save()

    def save(self) -> None:
        """Flush buffered entries; a failing checkpoint degrades, never kills."""
        try:
            self.store.save(self.run_key, self.entries)
        except Exception as e:
            obs.add("ckpt.save_errors")
            diag.warning("ckpt/save-failed", f"checkpoint save failed: {e!r}")
        else:
            self._dirty = False
        self._last_save = time.monotonic()

    def discard(self) -> None:
        self.store.discard(self.run_key)


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


class DistanceEngine:
    """Schedules bulk divergence work over workers, cache and checkpoints.

    Parameters
    ----------
    jobs:
        Worker processes. 1 (default) runs inline — deterministic and
        dependency-free; >1 forks a pool. Falls back to serial where the
        ``fork`` start method is unavailable.
    cache:
        Optional :class:`repro.cache.TedCacheStore`; installed in the
        distance layer (and every worker) for the duration of each run.
    chunk_size:
        Tasks per scheduled chunk. Default: enough chunks for ~4 rounds
        per worker, which keeps the tail balanced without drowning the
        pipe in tiny messages.
    chunk_timeout:
        Per-chunk wall-clock deadline in seconds for the parallel watchdog
        (None = no deadline). A chunk past its deadline is abandoned and
        rescheduled; this is also how chunks lost to killed workers are
        recovered.
    wave_timeout:
        Whole-wave wall-clock deadline in seconds (None = no deadline);
        see :class:`repro.parallel.pool.ChunkedPool`. The serve daemon
        sets this so one wedged wave cannot pin the engine thread forever.
    retries:
        Extra attempts per chunk after the first (timeouts and worker
        exceptions both count). Retried submissions back off exponentially
        (``backoff_s`` doubling, capped at 8s).
    strict:
        When True a chunk that exhausts its retries raises
        :class:`ReproError` (fail-fast). When False (default) it degrades:
        a ``distance/chunk-failed`` diagnostic plus ``fail_value`` for each
        of its tasks.
    checkpoint:
        Optional :class:`repro.ckpt.CheckpointStore`. Active only for
        ``map_tasks`` calls that supply per-task ``keys``.
    resume:
        When True, adopt completed values from an existing checkpoint of
        the same workload before computing anything.
    checkpoint_every:
        Seconds between periodic checkpoint flushes.
    backoff_s:
        First-retry backoff delay (doubles per attempt, capped).
    """

    def __init__(
        self,
        jobs: int = 1,
        cache=None,
        chunk_size: Optional[int] = None,
        chunk_timeout: Optional[float] = None,
        wave_timeout: Optional[float] = None,
        retries: int = 2,
        strict: bool = False,
        checkpoint=None,
        resume: bool = False,
        checkpoint_every: float = 5.0,
        backoff_s: float = 0.25,
    ):
        cache_root = str(cache.root) if cache is not None else None
        # validation (jobs/chunk_size/chunk_timeout/retries) happens here
        self._pool = ChunkedPool(
            jobs=jobs,
            chunk_size=chunk_size,
            chunk_timeout=chunk_timeout,
            wave_timeout=wave_timeout,
            retries=retries,
            strict=strict,
            backoff_s=backoff_s,
            counter_prefix="engine",
            label="distance chunk",
            fail_code="distance/chunk-failed",
            worker_setup=_make_worker_setup(cache_root),
            worker_teardown=_worker_teardown,
            init_counter="engine.worker_init_errors",
        )
        self.jobs = jobs
        self.cache = cache
        self.chunk_size = chunk_size
        self.chunk_timeout = chunk_timeout
        self.wave_timeout = wave_timeout
        self.retries = retries
        self.strict = strict
        self.checkpoint = checkpoint
        self.resume = resume
        self.checkpoint_every = checkpoint_every
        self.backoff_s = backoff_s
        #: Path of the last checkpoint saved by an interrupted run, if any —
        #: the CLI uses it for its "resumable from ..." message.
        self.last_checkpoint = None

    @contextmanager
    def _cache_installed(self):
        """Install ``self.cache`` in the distance layer; flush on exit."""
        if self.cache is None:
            yield
            return
        prev = get_disk_cache()
        set_disk_cache(self.cache)
        try:
            yield
        finally:
            _flush_quietly(self.cache)
            set_disk_cache(prev)

    # -- public API --------------------------------------------------------

    def map_tasks(
        self,
        fn: Callable[[Any], Any],
        tasks: Sequence[Any],
        keys: Optional[Sequence[str]] = None,
        fail_value: Any = float("nan"),
        prepare: Optional[Callable[[Sequence[Any]], None]] = None,
    ) -> list[Any]:
        """Apply ``fn`` to every task, preserving order.

        ``fn`` must be pure per task — that is what makes the parallel
        schedule value-identical to the serial one, duplicate evaluations
        after a watchdog reschedule harmless, and checkpointed values
        interchangeable with freshly computed ones.

        ``keys`` (optional, same length as ``tasks``) are stable per-task
        identity strings; they enable checkpoint/resume when the engine has
        a checkpoint store attached. ``fail_value`` is substituted for each
        task of a chunk that exhausts its retries in non-strict mode.

        ``prepare`` is the pool's chunk-level warm-up hook (see
        :meth:`ChunkedPool.run`): it sees each chunk's task slice before
        the per-task loop, which is how divergence sweeps expose all of a
        chunk's tree pairs to the TED layer for cross-pair batching.
        """
        tasks = list(tasks)
        if not tasks:
            return []
        if keys is not None and len(keys) != len(tasks):
            raise ValueError(f"keys length {len(keys)} != tasks length {len(tasks)}")
        obs.add("ted.pairs", len(tasks))

        ckpt: Optional[_CkptSession] = None
        if self.checkpoint is not None and keys is not None:
            ckpt = _CkptSession(self.checkpoint, keys, self.checkpoint_every)

        results: list[Any] = [None] * len(tasks)
        done = [False] * len(tasks)
        if ckpt is not None and self.resume:
            ckpt.load_into(results, done)
        #: original task indices still to compute, in submission order
        pending = [i for i, d in enumerate(done) if not d]
        if not pending:
            return results

        def _note(off: int, value: Any) -> None:
            if ckpt is not None:
                ckpt.note_done(pending[off], value)

        res = None
        with self._cache_installed(), sigterm_as_interrupt():
            try:
                res = self._pool.run(
                    fn,
                    [tasks[i] for i in pending],
                    fail_value=fail_value,
                    on_result=_note,
                    tick=ckpt.maybe_save if ckpt is not None else None,
                    prepare=prepare,
                )
            except BaseException as e:
                if ckpt is not None and ckpt.entries:
                    ckpt.save()
                    self.last_checkpoint = ckpt.path
                    if isinstance(e, KeyboardInterrupt):
                        diag.warning(
                            "distance/interrupted",
                            f"run interrupted; resumable from {ckpt.path} "
                            "(re-run with --resume)",
                        )
                raise
        for off, i in enumerate(pending):
            results[i] = res.values[off]
        if res.parallel and self.cache is not None:
            # Workers flushed their own pending writes; re-read shards
            # lazily so parent-side lookups see them.
            self.cache.drop_loaded()
        if ckpt is not None:
            if not res.degraded:
                # every task finished for real: the checkpoint has served
                # its purpose and a stale file would only accumulate
                ckpt.discard()
            elif ckpt.entries:
                # degraded tasks are not checkpointed, so a later --resume
                # run retries exactly them
                ckpt.save()
                self.last_checkpoint = ckpt.path
        return results
