"""Fault-tolerant chunked fork pool for the distance engine.

:class:`repro.distance.engine.DistanceEngine` is its one caller, so the
pool reports under the engine's names. It runs a task list:

* **serially by default** (``jobs=1``), running tasks inline in submission
  order so results stay byte-for-byte identical to a plain loop;
* **across a ``fork`` multiprocessing pool** for ``jobs > 1``: the task
  list is staged in a module global *before* the fork so workers inherit
  large task payloads (tree forests) by copy-on-write instead of pickling
  them through a pipe — only chunk bounds and results cross the pipe.
  Tasks must be pure functions of their inputs, which is what makes any
  schedule value-identical to the serial one;
* **under a watchdog** (forked path only): chunks are dispatched
  asynchronously and polled against a per-chunk wall-clock deadline
  (``chunk_timeout``) and a whole-wave one (``wave_timeout``). A chunk
  lost to a hung or killed worker (the pool respawns dead workers) is
  rescheduled with capped exponential backoff up to ``retries`` extra
  attempts; a chunk that exhausts its retries degrades to ``fail_value``
  entries plus a ``distance/chunk-failed`` diagnostic instead of aborting
  the run — unless ``strict``, which restores fail-fast. The serial path
  runs each task to completion: neither deadline applies to it.

Fault injection for tests and the chaos harness rides in the worker: the
``REPRO_CHAOS`` environment variable (e.g. ``"kill@3,hang@5,exc@7"``)
deterministically kills, hangs or exception-bombs the worker at the given
staged-task indices on the **first** attempt of the owning chunk (an ``!``
suffix on the mode fires on every attempt, for retry-exhaustion tests).
Retries skip the injection, so a chaos run must still converge to the
fault-free result — ``benchmarks/chaos_engine.py`` asserts exactly that.

Counters: ``engine.waves`` (one per non-empty ``run`` call — the unit the
serve layer's request coalescing is measured in), ``engine.chunks``,
``engine.workers`` (gauge), ``engine.retries``, ``engine.chunk_timeouts``,
``engine.worker_deaths``, ``engine.chunks_failed``,
``engine.wave_timeouts`` and ``engine.worker_init_errors`` (degraded
worker initialisation). Workers collect counters in-process and the parent
merges them, so ``--profile`` output is complete either way.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Optional, Sequence

from repro import diag, obs
from repro.util.errors import ReproError

#: Staged work visible to pool workers via fork inheritance. Shape:
#: ``{"fn", "tasks", "prepare", "setup", "teardown", "capture"}``. Only
#: valid between staging and pool shutdown.
_STAGE: Optional[dict] = None

#: Set when this worker's initializer had to degrade; counted inside the
#: next chunk's collect window so the parent sees it.
_INIT_FAILED: bool = False

#: Watchdog poll period (seconds). Small enough that timeouts and worker
#: deaths are noticed promptly, large enough to stay invisible in profiles.
_POLL_S = 0.02

#: Exponential-backoff cap for chunk retries (seconds).
_BACKOFF_CAP_S = 8.0

#: Per-chunk cap on spans shipped back to the parent. A chunk that records
#: more keeps its earliest spans (parents precede children in the log, so
#: links stay valid) and reports the overflow as ``engine.spans_dropped``
#: — tracing must never turn a result pipe into a firehose.
_MAX_CHUNK_SPANS = 2000


# ---------------------------------------------------------------------------
# Fault injection (chaos harness hook)
# ---------------------------------------------------------------------------


class ChaosError(RuntimeError):
    """Exception injected by the ``REPRO_CHAOS`` hook (never raised outside
    fault-injection runs)."""


def _parse_chaos(spec: str) -> list[tuple[str, int, bool]]:
    """Parse ``REPRO_CHAOS`` into (mode, task_index, every_attempt) triples.

    Format: comma-separated ``mode@index`` with mode one of ``kill``,
    ``hang``, ``exc``; a ``!`` suffix on the mode (``exc!@4``) fires on
    every attempt instead of only the first. Malformed parts are ignored —
    the hook must never be able to break a production run.
    """
    plan: list[tuple[str, int, bool]] = []
    for part in spec.replace(";", ",").split(","):
        part = part.strip()
        if not part:
            continue
        mode, _, at = part.partition("@")
        every = mode.endswith("!")
        if every:
            mode = mode[:-1]
        if mode not in ("kill", "hang", "exc") or not at.isdigit():
            continue
        plan.append((mode, int(at), every))
    return plan


def _chaos_fire(plan: list[tuple[str, int, bool]], idx: int, attempt: int) -> None:
    """Trigger any injection registered for staged-task index ``idx``."""
    for mode, at, every in plan:
        if at != idx or (attempt > 0 and not every):
            continue
        if mode == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        elif mode == "hang":
            time.sleep(float(os.environ.get("REPRO_CHAOS_HANG_S", "3600")))
        elif mode == "exc":
            raise ChaosError(f"injected exception at task {idx} (attempt {attempt})")


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


def _worker_init() -> None:
    """Per-worker setup: reset signal state, then run the staged ``setup``
    hook (e.g. the engine attaching a fresh disk-cache handle).

    Must never raise: a failing pool initializer makes the pool respawn
    workers forever, so any setup problem degrades — but visibly, via
    ``engine.worker_init_errors``, not silently. A setup hook signals
    degradation by returning ``False``.
    """
    global _INIT_FAILED
    _INIT_FAILED = False
    try:
        # undo the parent's SIGTERM→KeyboardInterrupt mapping (inherited
        # through fork): pool.terminate() must kill workers quietly, not
        # make a hung worker spew an interrupt traceback
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    except (ValueError, OSError):
        pass
    if _STAGE is None:
        # Fork without staging is a caller bug; degrade rather than letting
        # the pool respawn workers forever, but flag it.
        _INIT_FAILED = True
        return
    setup = _STAGE.get("setup")
    if setup is not None and setup() is False:
        _INIT_FAILED = True


def _run_chunk(
    args: tuple[tuple[int, int], int],
) -> tuple[list[Any], dict[str, float], Optional[dict]]:
    """Evaluate one chunk of staged tasks inside a pool worker.

    ``args`` is ``((lo, hi), attempt)`` — the attempt number exists so the
    chaos hook can fire only on a chunk's first execution, which is what
    makes fault-injected runs converge to the fault-free result.

    Returns ``(results, counter deltas, trace payload)``. The payload is
    ``None`` unless the parent was collecting when the pool was staged
    (``capture``): then the whole chunk runs under an ``engine.chunk``
    span and the worker's span log (capped at :data:`_MAX_CHUNK_SPANS`) and
    histograms travel back for :meth:`Collector.adopt_chunk`, giving the
    parent's trace a per-worker pid lane.
    """
    (lo, hi), attempt = args
    assert _STAGE is not None
    fn = _STAGE["fn"]
    tasks = _STAGE["tasks"]
    capture = _STAGE.get("capture", False)
    plan = _parse_chaos(os.environ.get("REPRO_CHAOS", ""))
    with obs.collect() as col:
        with obs.span("engine.chunk", lo=lo, hi=hi, attempt=attempt):
            if _INIT_FAILED:
                obs.add("engine.worker_init_errors")
            _run_prepare(_STAGE.get("prepare"), tasks[lo:hi])
            out = []
            for idx in range(lo, hi):
                if plan:
                    _chaos_fire(plan, idx, attempt)
                out.append(fn(tasks[idx]))
            teardown = _STAGE.get("teardown")
            if teardown is not None:
                teardown()
    payload = None
    if capture:
        spans, dropped = col.export_spans(limit=_MAX_CHUNK_SPANS)
        payload = {
            "pid": os.getpid(),
            "epoch_wall": col.epoch_wall,
            "spans": spans,
            "hists": col.export_hists(),
            "dropped": dropped,
        }
    return out, dict(col.counters), payload


def _run_prepare(prepare, chunk_tasks) -> None:
    """Run a chunk-level ``prepare`` hook, degrading on failure.

    ``prepare`` sees the whole chunk's task slice before the per-task loop;
    it exists so batch-shaped warm-up (cross-pair TED packing) can run once
    per chunk. It must be a pure cache warmer: per-task ``fn`` recomputes
    anything it failed to publish, so an exception here costs speed, never
    correctness — degrade visibly and move on.
    """
    if prepare is None:
        return
    try:
        with obs.span("engine.prepare", tasks=len(chunk_tasks)):
            prepare(chunk_tasks)
    except Exception:
        obs.add("engine.prepare_errors")


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------


@contextmanager
def sigterm_as_interrupt():
    """Map SIGTERM to KeyboardInterrupt for the duration of a run, so an
    orchestrator's soft-kill flushes caches exactly like Ctrl-C. Only
    touches the handler from the main thread (signal API constraint)."""
    if threading.current_thread() is not threading.main_thread():
        yield
        return

    def _raise(signum, frame):
        raise KeyboardInterrupt

    try:
        prev = signal.signal(signal.SIGTERM, _raise)
    except (ValueError, OSError):  # exotic embedding: no signal support
        yield
        return
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, prev)


class PoolResult:
    """Outcome of one :meth:`ChunkedPool.run` call."""

    __slots__ = ("values", "parallel")

    def __init__(self, values: list[Any], parallel: bool):
        #: per-task results, in submission order; a task whose chunk failed
        #: holds ``fail_value``
        self.values = values
        #: True when a fork pool actually ran (vs the inline serial path)
        self.parallel = parallel


class _PoolRun:
    """Mutable bookkeeping for one ``run`` call."""

    __slots__ = ("values", "fail_value", "collector", "pool_span")

    def __init__(self, n_tasks, fail_value):
        self.values: list[Any] = [None] * n_tasks
        self.fail_value = fail_value
        self.collector = obs.current_collector()
        #: record index of the parent-side pool span; adopted worker chunk
        #: spans hang under it so the trace stays one navigable tree
        self.pool_span: int = -1


class _ChunkState:
    """Watchdog bookkeeping for one scheduled chunk."""

    __slots__ = ("bounds", "attempts", "inflight", "deadline", "next_submit")

    def __init__(self, bounds: tuple[int, int]):
        self.bounds = bounds
        self.attempts = 0  # submissions so far
        self.inflight = None  # AsyncResult while running
        self.deadline = float("inf")
        self.next_submit = 0.0  # monotonic time gate (backoff)


class ChunkedPool:
    """Schedules pure per-task work over forked workers with a watchdog.

    Parameters
    ----------
    jobs:
        Worker processes. 1 (default) runs inline — deterministic and
        dependency-free; >1 forks a pool. Falls back to serial where the
        ``fork`` start method is unavailable.
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
        Whole-wave wall-clock deadline in seconds (None = no deadline).
        When one ``run`` call — retries and backoff included — exceeds it,
        every unfinished chunk degrades to ``fail_value`` at once
        (``engine.wave_timeouts``; strict mode raises instead) so the
        caller's thread gets its result list back on a bounded schedule.
        The serve daemon leans on this: its engine thread must return so
        the batcher can route per-key failures instead of wedging. Only
        the forked path reads it: the serial path (``jobs=1``) runs every
        task to completion however long the wave takes.
    retries:
        Extra attempts per chunk after the first (timeouts and worker
        exceptions both count). Retried submissions back off exponentially
        (``backoff_s`` doubling, capped at 8s).
    strict:
        When True a chunk that exhausts its retries raises
        :class:`ReproError` (fail-fast). When False (default) it degrades:
        a ``distance/chunk-failed`` diagnostic plus ``fail_value`` for each
        of its tasks.
    backoff_s:
        First-retry backoff delay (doubles per attempt, capped).
    worker_setup / worker_teardown:
        Optional hooks staged into workers by fork inheritance: ``setup``
        runs in the pool initializer (return ``False`` to flag degraded
        init, counted as ``engine.worker_init_errors`` inside the next
        chunk), ``teardown`` runs at the end of every chunk (e.g. flushing
        a worker-side cache) inside the chunk's counter-collect window.
    """

    def __init__(
        self,
        jobs: int = 1,
        chunk_size: Optional[int] = None,
        chunk_timeout: Optional[float] = None,
        wave_timeout: Optional[float] = None,
        retries: int = 2,
        strict: bool = False,
        backoff_s: float = 0.25,
        worker_setup: Optional[Callable[[], Any]] = None,
        worker_teardown: Optional[Callable[[], Any]] = None,
    ):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        if chunk_timeout is not None and chunk_timeout <= 0:
            raise ValueError(f"chunk_timeout must be > 0, got {chunk_timeout}")
        if wave_timeout is not None and wave_timeout <= 0:
            raise ValueError(f"wave_timeout must be > 0, got {wave_timeout}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.jobs = jobs
        self.chunk_size = chunk_size
        self.chunk_timeout = chunk_timeout
        self.wave_timeout = wave_timeout
        self.retries = retries
        self.strict = strict
        self.backoff_s = backoff_s
        self.worker_setup = worker_setup
        self.worker_teardown = worker_teardown

    # -- public API --------------------------------------------------------

    def run(
        self,
        fn: Callable[[Any], Any],
        tasks: Sequence[Any],
        fail_value: Any = None,
        prepare: Optional[Callable[[Sequence[Any]], None]] = None,
    ) -> PoolResult:
        """Apply ``fn`` to every task, preserving order.

        ``fn`` must be pure per task — that is what makes the parallel
        schedule value-identical to the serial one and duplicate
        evaluations after a watchdog reschedule harmless.

        ``prepare``, when given, receives each chunk's task slice (the
        whole list on the serial path) before its per-task loop — in the
        worker process on the forked path. It must be a pure cache warmer:
        failures degrade to an ``engine.prepare_errors`` counter and the
        per-task path recomputes, so results are unchanged with or without
        it.
        """
        tasks = list(tasks)
        run = _PoolRun(len(tasks), fail_value)
        if not tasks:
            return PoolResult(run.values, False)
        # one wave = one scheduling pass over a task list; the serve layer's
        # request coalescing asserts its batching on exactly this counter
        obs.add("engine.waves")
        # jobs > 1 always forks, even for a single task: the caller asked
        # for process isolation, and the watchdog/trace machinery (worker
        # pid lanes, chunk retries) only exists on the forked path. Worker
        # count is still clamped — one task never gets two processes.
        if self.jobs == 1 or "fork" not in multiprocessing.get_all_start_methods():
            self._run_serial(fn, tasks, run, prepare)
            return PoolResult(run.values, False)
        self._run_parallel(fn, tasks, run, min(self.jobs, len(tasks)), prepare)
        return PoolResult(run.values, True)

    # -- serial ------------------------------------------------------------

    def _run_serial(self, fn, tasks, run: "_PoolRun", prepare=None) -> None:
        obs.gauge("engine.workers", 1)
        _run_prepare(prepare, tasks)
        for i, task in enumerate(tasks):
            run.values[i] = fn(task)

    # -- parallel (watchdogged) --------------------------------------------

    def _run_parallel(self, fn, tasks, run: "_PoolRun", jobs: int, prepare=None) -> None:
        global _STAGE
        n = len(tasks)
        size = self.chunk_size or max(1, -(-n // (jobs * 4)))
        chunks = [_ChunkState((lo, min(lo + size, n))) for lo in range(0, n, size)]
        obs.add("engine.chunks", len(chunks))
        obs.gauge("engine.workers", jobs)
        _STAGE = {
            "fn": fn,
            "tasks": tasks,
            "prepare": prepare,
            "setup": self.worker_setup,
            "teardown": self.worker_teardown,
            # workers only serialize spans/hists when someone is listening:
            # the disabled path must stay free of per-chunk payload cost
            "capture": run.collector is not None,
        }
        ctx = multiprocessing.get_context("fork")
        try:
            with obs.span("engine.pool", jobs=jobs, chunks=len(chunks)) as sp:
                run.pool_span = sp.index
                with ctx.Pool(processes=jobs, initializer=_worker_init) as pool:
                    self._drive(pool, chunks, run)
        finally:
            _STAGE = None

    def _drive(self, pool, chunks, run: "_PoolRun") -> None:
        """Watchdog loop: async dispatch, deadlines, retries, degradation."""
        remaining = list(chunks)
        known_pids = _live_pids(pool)
        wave_deadline = (
            time.monotonic() + self.wave_timeout
            if self.wave_timeout is not None
            else float("inf")
        )
        while remaining:
            now = time.monotonic()
            if now > wave_deadline:
                self._expire_wave(remaining, run)
                return
            remaining = [c for c in remaining if not self._step_chunk(pool, c, now, run)]
            pids = _live_pids(pool)
            vanished = known_pids - pids
            if vanished:
                obs.add("engine.worker_deaths", len(vanished))
            known_pids = pids
            if remaining:
                time.sleep(_POLL_S)

    def _step_chunk(self, pool, chunk, now, run: "_PoolRun") -> bool:
        """Advance one chunk's state machine; True when it is finished."""
        if chunk.inflight is None:
            if now >= chunk.next_submit:
                self._submit(pool, chunk, now)
            return False
        if chunk.inflight.ready():
            try:
                out, counters, payload = chunk.inflight.get()
            except Exception as e:  # worker raised (or pool lost the task)
                return self._register_failure(chunk, now, e, run)
            lo, hi = chunk.bounds
            run.values[lo:hi] = out
            if run.collector is not None:
                for name, value in counters.items():
                    run.collector.add(name, value)
                if payload is not None:
                    # at most once per chunk: abandoned in-flight results
                    # were dropped, so a rescheduled chunk adopts only the
                    # delivery that won
                    run.collector.adopt_chunk(
                        payload["spans"],
                        payload["hists"],
                        pid=payload["pid"],
                        epoch_wall=payload["epoch_wall"],
                        parent=run.pool_span,
                    )
                    if payload["dropped"]:
                        run.collector.add("engine.spans_dropped", payload["dropped"])
            return True
        if now > chunk.deadline:
            obs.add("engine.chunk_timeouts")
            lo, hi = chunk.bounds
            err = TimeoutError(
                f"chunk {lo}:{hi} exceeded chunk_timeout={self.chunk_timeout}s "
                f"(attempt {chunk.attempts})"
            )
            return self._register_failure(chunk, now, err, run)
        return False

    def _submit(self, pool, chunk, now) -> None:
        chunk.attempts += 1
        # attempt is 0-based on the worker side: the chaos hook fires only
        # on a chunk's first execution unless marked always-on
        chunk.inflight = pool.apply_async(_run_chunk, ((chunk.bounds, chunk.attempts - 1),))
        chunk.deadline = (
            now + self.chunk_timeout if self.chunk_timeout is not None else float("inf")
        )

    def _expire_wave(self, remaining, run: "_PoolRun") -> None:
        """The whole wave ran out of wall clock: degrade every unfinished
        chunk at once (in-flight attempts included — the pool context exit
        terminates their workers). Strict mode raises instead."""
        obs.add("engine.wave_timeouts")
        if self.strict:
            raise ReproError(
                f"distance chunk wave exceeded wave_timeout={self.wave_timeout}s "
                f"with {len(remaining)} chunk(s) unfinished"
            )
        for chunk in remaining:
            lo, hi = chunk.bounds
            obs.add("engine.chunks_failed")
            diag.error(
                "distance/chunk-failed",
                f"tasks {lo}:{hi} degraded to fail_value: wave exceeded "
                f"wave_timeout={self.wave_timeout}s",
            )
            run.values[lo:hi] = [run.fail_value] * (hi - lo)

    def _register_failure(self, chunk, now, err, run: "_PoolRun") -> bool:
        """Handle one failed attempt: reschedule with backoff, or degrade.

        Returns True when the chunk is finished (degraded); raises in
        strict mode once retries are exhausted. The abandoned in-flight
        result (a hung worker may still deliver it) is dropped — ``fn`` is
        pure, so a late duplicate could only ever carry identical values.
        """
        chunk.inflight = None
        lo, hi = chunk.bounds
        if chunk.attempts <= self.retries:
            obs.add("engine.retries")
            backoff = min(self.backoff_s * 2 ** (chunk.attempts - 1), _BACKOFF_CAP_S)
            chunk.next_submit = now + backoff
            chunk.deadline = float("inf")
            return False
        if self.strict:
            raise ReproError(
                f"distance chunk {lo}:{hi} failed after {chunk.attempts} attempt(s): {err}"
            )
        obs.add("engine.chunks_failed")
        diag.error(
            "distance/chunk-failed",
            f"tasks {lo}:{hi} degraded to fail_value after {chunk.attempts} "
            f"attempt(s): {err}",
        )
        run.values[lo:hi] = [run.fail_value] * (hi - lo)
        return True


def _live_pids(pool) -> set[int]:
    """PIDs of the pool's current workers (best-effort: reads a CPython
    implementation detail, so any surprise degrades to 'no information')."""
    try:
        return {p.pid for p in list(pool._pool) if p.pid is not None}
    except Exception:
        return set()
