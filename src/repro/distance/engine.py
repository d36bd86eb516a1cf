"""Fault-tolerant parallel distance-matrix engine with a persistent cache.

The paper's compare step is the cartesian product of all models (§V-A) —
O(n²) divergence evaluations whose cost dominates every figure. On
production corpora that is a multi-minute-to-multi-hour run, so this
engine schedules the pair list *defensively* on
:class:`repro.parallel.ChunkedPool` (serial by default, ``jobs`` forked
workers with one pipe each for ``jobs > 1``, immediate retries of a chunk
whose task raised or whose worker died, chaos-hook fault injection — see
:mod:`repro.parallel.pool` for that contract; the engine is the pool's one
caller, so the pool reports under ``engine.*``) and adds the
distance-specific layers:

* **a persistent TED cache** (:class:`repro.cache.TedCacheStore`) when one
  is attached: the engine installs it in the distance layer (and attaches
  a fresh store handle in every pool worker via the pool's setup hook) for
  the duration of the run and flushes buffered writes on exit, so warm
  runs perform zero Zhang–Shasha evaluations;
* **resume through that cache**: every finished TED distance is persisted
  — by each worker at the end of its chunk, and by the parent on exit,
  interrupted or not — so re-running an interrupted workload with the
  same cache recomputes only the kernels that never finished. SIGTERM is
  mapped to :class:`KeyboardInterrupt` during the run; an interrupt
  kills and reaps the workers, flushes the cache, emits a
  ``distance/interrupted`` diagnostic naming the cache root and the
  distances flushed, and re-raises;
* **degradation semantics**: a chunk that exhausts its retries degrades to
  a ``distance/chunk-failed`` diagnostic with ``fail_value`` entries
  instead of aborting the run — unless ``strict``, which restores
  fail-fast.

Counters: ``ted.pairs`` (tasks scheduled), ``engine.chunks``,
``engine.workers``, ``engine.retries``, ``engine.worker_deaths``,
``engine.chunks_failed``, plus the ``cache.disk.hit/miss`` pair recorded
by the distance layer. Workers collect counters in-process and the parent
merges them, so ``--profile`` output is complete either way.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Optional, Sequence

from repro import diag, obs

# NB: function imports, not ``import repro.distance.ted as ...`` — the
# package re-exports the ``ted`` *function* under the module's name, so any
# attribute-style module reference resolves to the function instead.
from repro.distance.ted import get_disk_cache, set_disk_cache
from repro.parallel.pool import ChunkedPool, sigterm_as_interrupt
from repro.util.errors import ReproError


def _flush_quietly(store) -> int:
    """Flush cache writes and return how many were written (0 when the
    flush failed); a failing cache degrades the run, never kills it.

    Broad on purpose: a corrupted pending-write buffer surfaces as
    ``SerdeError``/``ValueError``/``TypeError`` from the serializer rather
    than ``OSError`` — any of them escaping here would kill an otherwise
    healthy run at exit. ``KeyboardInterrupt`` (a ``BaseException``) still
    propagates so Ctrl-C cannot be swallowed.
    """
    try:
        return store.flush()
    except Exception as e:
        obs.add("cache.disk.flush_errors")
        diag.error("cache/flush-failed", f"TED cache flush failed: {e!r}")
        return 0


# ---------------------------------------------------------------------------
# Worker hooks (inherited by pool workers through fork)
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
# The engine
# ---------------------------------------------------------------------------


class DistanceEngine:
    """Schedules bulk divergence work over workers and a persistent cache.

    Parameters
    ----------
    jobs:
        Worker processes. 1 (default) runs inline — deterministic and
        dependency-free; >1 forks a pool. Falls back to serial where the
        ``fork`` start method is unavailable.
    cache:
        Optional :class:`repro.cache.TedCacheStore`; installed in the
        distance layer (and every worker) for the duration of each run,
        and the store an interrupted run resumes from.
    chunk_size:
        Tasks per scheduled chunk. Default: enough chunks for ~4 rounds
        per worker, which keeps the tail balanced without drowning the
        pipes in tiny messages.
    wave_timeout:
        Whole-wave wall-clock deadline in seconds (None = no deadline);
        see :class:`repro.parallel.pool.ChunkedPool`. The serve daemon
        sets this so one wedged wave cannot pin the engine thread forever.
        It applies only with ``jobs > 1``: a serial wave runs to the end.
    retries:
        Extra attempts per chunk after the first; a task exception and a
        worker death both count.
    strict:
        When True a chunk that exhausts its retries raises
        :class:`ReproError` (fail-fast). When False (default) it degrades:
        a ``distance/chunk-failed`` diagnostic plus ``fail_value`` for each
        of its tasks.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache=None,
        chunk_size: Optional[int] = None,
        wave_timeout: Optional[float] = None,
        retries: int = 2,
        strict: bool = False,
    ):
        cache_root = str(cache.root) if cache is not None else None
        # validation (jobs/chunk_size/wave_timeout/retries) happens here
        self._pool = ChunkedPool(
            jobs=jobs,
            chunk_size=chunk_size,
            wave_timeout=wave_timeout,
            retries=retries,
            strict=strict,
            worker_setup=_make_worker_setup(cache_root),
            worker_teardown=_worker_teardown,
        )
        self.jobs = jobs
        self.cache = cache
        self.chunk_size = chunk_size
        self.wave_timeout = wave_timeout
        self.retries = retries
        self.strict = strict

    @contextmanager
    def _cache_installed(self):
        """Install ``self.cache`` in the distance layer; flush on exit.

        The flush runs on an interrupt too: the distances it writes are what
        a re-run with the same cache resumes from, so the interrupt is
        reported with their number and root before it propagates.
        """
        prev = get_disk_cache()
        if self.cache is not None:
            set_disk_cache(self.cache)
        interrupted = False
        try:
            yield
        except KeyboardInterrupt:
            interrupted = True
            raise
        finally:
            flushed = _flush_quietly(self.cache) if self.cache is not None else 0
            set_disk_cache(prev)
            if interrupted:
                self._report_interrupt(flushed)

    def _report_interrupt(self, flushed: int) -> None:
        if self.cache is None:
            msg = "run interrupted; no TED cache attached, so nothing was persisted"
        else:
            msg = f"run interrupted; flushed {flushed} TED distance(s) to {self.cache.root}"
            if self.jobs > 1:
                msg += " on exit, after every finished worker chunk flushed its own"
            msg += "; re-run with the same cache to resume"
        diag.warning("distance/interrupted", msg)

    # -- public API --------------------------------------------------------

    def map_tasks(
        self,
        fn: Callable[[Any], Any],
        tasks: Sequence[Any],
        fail_value: Any = float("nan"),
        prepare: Optional[Callable[[Sequence[Any]], None]] = None,
    ) -> list[Any]:
        """Apply ``fn`` to every task, preserving order.

        ``fn`` must be pure per task — that is what makes the parallel
        schedule value-identical to the serial one and a retried chunk's
        values identical to a first attempt's. ``fail_value`` is
        substituted for each task of a chunk that exhausts its retries in
        non-strict mode.

        ``prepare`` is the pool's chunk-level warm-up hook (see
        :meth:`ChunkedPool.run`): it sees each chunk's task slice before
        the per-task loop, which is how divergence sweeps expose all of a
        chunk's tree pairs to the TED layer for cross-pair batching.
        """
        tasks = list(tasks)
        if not tasks:
            return []
        obs.add("ted.pairs", len(tasks))
        with self._cache_installed(), sigterm_as_interrupt():
            res = self._pool.run(fn, tasks, fail_value=fail_value, prepare=prepare)
        if res.parallel and self.cache is not None:
            # Workers flushed their own pending writes; re-read shards
            # lazily so parent-side lookups see them.
            self.cache.drop_loaded()
        return res.values
