"""Chunked fork pool for the distance engine.

:class:`repro.distance.engine.DistanceEngine` is its one caller, so the
pool reports under the engine's names. It runs a task list:

* **serially by default** (``jobs=1``), running tasks inline in submission
  order so results stay byte-for-byte identical to a plain loop;
* **over ``jobs`` forked workers** for ``jobs > 1``. Workers are forked
  once per run and inherit the task list, ``fn`` and the hooks, so large
  task payloads (tree forests) are shared copy-on-write instead of pickled
  — only chunk bounds and results cross a pipe. Each worker owns one
  duplex pipe. The parent sends a chunk's bounds down an idle worker's
  pipe and waits on the busy pipes, so a result, a task exception and a
  worker death (end of file on that worker's pipe) each name their chunk
  the moment they happen. Tasks must be pure functions of their inputs,
  which is what makes any schedule value-identical to the serial one.

A failed attempt — an exception, or a worker death, after which a fresh
worker is forked — is retried at once, up to ``retries`` extra attempts;
a chunk that exhausts them degrades to ``fail_value`` entries plus a
``distance/chunk-failed`` diagnostic instead of aborting the run, unless
``strict``, which raises. ``wave_timeout`` bounds a whole forked run:
when it expires, every unfinished chunk degrades at once. Any exit other
than a finished run (an interrupt, a strict raise, an expired budget)
kills and reaps every worker before the exception or the values leave
:meth:`ChunkedPool.run`. The serial path runs each task to completion.

Fault injection for tests and the chaos harness rides in the worker: the
``REPRO_CHAOS`` environment variable (e.g. ``"kill@3,exc@7"``)
deterministically kills or exception-bombs the worker at the given task
indices on the **first** attempt of the owning chunk (an ``!`` suffix on
the mode fires on every attempt, for retry-exhaustion tests). Retries
skip the injection, so a chaos run must still converge to the fault-free
result — ``benchmarks/chaos_engine.py`` asserts exactly that.

Counters: ``engine.waves`` (one per non-empty ``run`` call — the unit the
serve layer's request coalescing is measured in), ``engine.chunks``,
``engine.workers`` (gauge), ``engine.retries``, ``engine.worker_deaths``,
``engine.chunks_failed``, ``engine.wave_timeouts`` and
``engine.worker_init_errors`` (workers whose setup degraded). Workers
collect counters in-process and the parent merges them, so ``--profile``
output is complete either way.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Any, Callable, NamedTuple, Optional, Sequence

from repro import diag, obs
from repro.util.errors import ReproError

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

    Format: comma-separated ``mode@index`` with mode ``kill`` or ``exc``;
    a ``!`` suffix on the mode (``exc!@4``) fires on every attempt instead
    of only the first. Malformed parts are ignored — the hook must never
    be able to break a production run.
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
        if mode not in ("kill", "exc") or not at.isdigit():
            continue
        plan.append((mode, int(at), every))
    return plan


def _chaos_fire(plan: list[tuple[str, int, bool]], idx: int, attempt: int) -> None:
    """Trigger any injection registered for task index ``idx``."""
    for mode, at, every in plan:
        if at != idx or (attempt > 0 and not every):
            continue
        if mode == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        else:
            raise ChaosError(f"injected exception at task {idx} (attempt {attempt})")


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


class _Wave(NamedTuple):
    """What every worker of one forked run inherits through fork."""

    fn: Callable[[Any], Any]
    tasks: Sequence[Any]
    prepare: Optional[Callable[[Sequence[Any]], None]] = None
    setup: Optional[Callable[[], Any]] = None
    teardown: Optional[Callable[[], Any]] = None
    #: ship spans and histograms back only when the parent collects: the
    #: disabled path must stay free of per-chunk payload cost
    capture: bool = False


def _worker_init(setup: Optional[Callable[[], Any]]) -> bool:
    """Reset the worker's signal state, then run ``setup`` (e.g. the engine
    attaching a fresh disk-cache handle). Returns False when ``setup``
    reports degraded initialisation by returning ``False``; the worker
    counts that as ``engine.worker_init_errors`` in its first chunk."""
    try:
        # undo the parent's SIGTERM→KeyboardInterrupt mapping (inherited
        # through fork): a SIGTERM to the process group must end a worker
        # quietly, whatever it is doing
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    except (ValueError, OSError):
        pass
    return setup is None or setup() is not False


def _worker_main(conn, wave: _Wave) -> None:
    """Worker process body: run each ``(lo, hi, attempt)`` chunk sent down
    ``conn`` and reply with :func:`_run_chunk`'s triple, or with the text of
    the exception the chunk raised; ``None`` ends the worker."""
    try:
        init_failed = not _worker_init(wave.setup)
        plan = _parse_chaos(os.environ.get("REPRO_CHAOS", ""))
        while (msg := conn.recv()) is not None:
            try:
                conn.send(_run_chunk(wave, *msg, init_failed=init_failed, plan=plan))
                init_failed = False
            except Exception as e:
                conn.send(f"{type(e).__name__}: {e}")
    except (KeyboardInterrupt, EOFError, OSError):
        # Ctrl-C reaches the whole process group and the parent reports it;
        # a pipe error means the parent is gone. Either way, end quietly.
        pass


def _run_chunk(
    wave: _Wave,
    lo: int,
    hi: int,
    attempt: int,
    init_failed: bool = False,
    plan: Sequence[tuple[str, int, bool]] = (),
) -> tuple[list[Any], dict[str, float], Optional[dict]]:
    """Evaluate tasks ``lo:hi`` of ``wave`` inside a worker.

    ``attempt`` (0 for a chunk's first run) lets the chaos ``plan`` fire
    only on a chunk's first execution, which is what makes fault-injected
    runs converge to the fault-free result.

    Returns ``(results, counter deltas, trace payload)``. The payload is
    ``None`` unless ``wave.capture``: then the whole chunk runs under an
    ``engine.chunk`` span and the worker's span log (capped at
    :data:`_MAX_CHUNK_SPANS`) and histograms travel back for
    :meth:`Collector.adopt_chunk`, giving the parent's trace a per-worker
    pid lane.
    """
    with obs.collect() as col:
        with obs.span("engine.chunk", lo=lo, hi=hi, attempt=attempt):
            if init_failed:
                obs.add("engine.worker_init_errors")
            _run_prepare(wave.prepare, wave.tasks[lo:hi])
            out = []
            for idx in range(lo, hi):
                if plan:
                    _chaos_fire(plan, idx, attempt)
                out.append(wave.fn(wave.tasks[idx]))
            if wave.teardown is not None:
                wave.teardown()
    payload = None
    if wave.capture:
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
        #: True when forked workers actually ran (vs the inline serial path)
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


class _Worker:
    """One forked worker and the parent's end of its private pipe."""

    __slots__ = ("proc", "conn", "chunk")

    def __init__(self, ctx, wave: _Wave):
        self.conn, child = ctx.Pipe()
        self.proc = ctx.Process(target=_worker_main, args=(child, wave), daemon=True)
        self.proc.start()
        # the worker now holds the only other end, so its death reads as
        # end of file here
        child.close()
        #: ``(lo, hi, attempt)`` in flight, or None while idle
        self.chunk: Optional[tuple[int, int, int]] = None

    def send(self, chunk: Optional[tuple[int, int, int]]) -> None:
        self.chunk = chunk
        try:
            self.conn.send(chunk)
        except OSError:
            pass  # a dead worker: its pipe reads as end of file next


class ChunkedPool:
    """Schedules pure per-task work over forked workers.

    Parameters
    ----------
    jobs:
        Worker processes. 1 (default) runs inline — deterministic and
        dependency-free; >1 forks that many workers. Falls back to serial
        where the ``fork`` start method is unavailable.
    chunk_size:
        Tasks per scheduled chunk. Default: enough chunks for ~4 rounds
        per worker, which keeps the tail balanced without drowning the
        pipes in tiny messages.
    wave_timeout:
        Whole-run wall-clock budget in seconds (None = no budget). When one
        forked ``run`` call — retries included — exceeds it, every
        unfinished chunk degrades to ``fail_value`` at once
        (``engine.wave_timeouts``; strict mode raises instead) and the
        workers are killed, so the caller's thread gets its result list
        back on a bounded schedule. The serve daemon leans on this: its
        engine thread must return so the batcher can route per-key
        failures instead of wedging. The serial path (``jobs=1``) runs
        every task to completion however long the wave takes.
    retries:
        Extra attempts per chunk after the first; a task exception and a
        worker death both count.
    strict:
        When True a chunk that exhausts its retries raises
        :class:`ReproError` (fail-fast). When False (default) it degrades:
        a ``distance/chunk-failed`` diagnostic plus ``fail_value`` for each
        of its tasks.
    worker_setup / worker_teardown:
        Optional hooks run in every worker: ``setup`` once when the worker
        starts (return ``False`` to flag degraded init, counted as
        ``engine.worker_init_errors`` inside its first chunk),
        ``teardown`` at the end of every chunk (e.g. flushing a
        worker-side cache) inside the chunk's counter-collect window.
    """

    def __init__(
        self,
        jobs: int = 1,
        chunk_size: Optional[int] = None,
        wave_timeout: Optional[float] = None,
        retries: int = 2,
        strict: bool = False,
        worker_setup: Optional[Callable[[], Any]] = None,
        worker_teardown: Optional[Callable[[], Any]] = None,
    ):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        if wave_timeout is not None and wave_timeout <= 0:
            raise ValueError(f"wave_timeout must be > 0, got {wave_timeout}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.jobs = jobs
        self.chunk_size = chunk_size
        self.wave_timeout = wave_timeout
        self.retries = retries
        self.strict = strict
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
        schedule value-identical to the serial one and a retried chunk's
        values identical to a first attempt's.

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
        # for process isolation, and the trace machinery (worker pid lanes)
        # only exists on the forked path. No chunk gets two processes.
        if self.jobs == 1 or "fork" not in multiprocessing.get_all_start_methods():
            self._run_serial(fn, tasks, run, prepare)
            return PoolResult(run.values, False)
        capture = run.collector is not None
        wave = _Wave(fn, tasks, prepare, self.worker_setup, self.worker_teardown, capture)
        self._run_parallel(wave, run)
        return PoolResult(run.values, True)

    # -- serial ------------------------------------------------------------

    def _run_serial(self, fn, tasks, run: "_PoolRun", prepare=None) -> None:
        obs.gauge("engine.workers", 1)
        _run_prepare(prepare, tasks)
        for i, task in enumerate(tasks):
            run.values[i] = fn(task)

    # -- forked ------------------------------------------------------------

    def _run_parallel(self, wave: _Wave, run: "_PoolRun") -> None:
        # imported here, like the pipes themselves, so the serial path loads
        # none of the forked path's modules
        from multiprocessing.connection import wait

        n = len(wave.tasks)
        size = self.chunk_size or max(1, -(-n // (self.jobs * 4)))
        pending = deque((lo, min(lo + size, n), 0) for lo in range(0, n, size))
        jobs = min(self.jobs, len(pending))
        obs.add("engine.chunks", len(pending))
        obs.gauge("engine.workers", jobs)
        ctx = multiprocessing.get_context("fork")
        deadline = None if self.wave_timeout is None else time.monotonic() + self.wave_timeout
        workers: list[_Worker] = []
        finished = False
        with obs.span("engine.pool", jobs=jobs, chunks=len(pending)) as sp:
            run.pool_span = sp.index
            try:
                while True:
                    for w in workers:
                        if w.chunk is None and pending:
                            w.send(pending.popleft())
                    while pending and len(workers) < jobs:
                        workers.append(_Worker(ctx, wave))
                        workers[-1].send(pending.popleft())
                    busy = {w.conn: w for w in workers if w.chunk is not None}
                    if not busy:
                        break
                    left = None if deadline is None else max(0.0, deadline - time.monotonic())
                    ready = wait(list(busy), left)
                    if not ready and deadline is not None and time.monotonic() >= deadline:
                        self._expire_wave([w.chunk for w in busy.values()] + list(pending), run)
                        return
                    for conn in ready:
                        self._collect(busy[conn], workers, pending, run)
                finished = True
            finally:
                _stop(workers, finished)

    def _collect(self, w: _Worker, workers, pending, run: "_PoolRun") -> None:
        """Take ``w``'s reply: store its chunk's values, or handle the failed
        attempt (an exception's text, or ``w`` having died)."""
        chunk, w.chunk = w.chunk, None
        try:
            reply = w.conn.recv()
        except (EOFError, OSError):
            obs.add("engine.worker_deaths")
            workers.remove(w)
            w.proc.join()
            w.conn.close()
            reply = f"worker {w.proc.pid} died (exit code {w.proc.exitcode})"
        if isinstance(reply, str):
            self._register_failure(chunk, reply, pending, run)
            return
        lo, hi, _attempt = chunk
        out, counters, payload = reply
        run.values[lo:hi] = out
        if run.collector is not None:
            for name, value in counters.items():
                run.collector.add(name, value)
            if payload is not None:
                run.collector.adopt_chunk(
                    payload["spans"],
                    payload["hists"],
                    pid=payload["pid"],
                    epoch_wall=payload["epoch_wall"],
                    parent=run.pool_span,
                )
                if payload["dropped"]:
                    run.collector.add("engine.spans_dropped", payload["dropped"])

    def _register_failure(self, chunk, err: str, pending, run: "_PoolRun") -> None:
        """Handle one failed attempt: queue the chunk again at the front, or
        degrade it once its retries are spent (strict mode raises)."""
        lo, hi, attempt = chunk
        if attempt < self.retries:
            obs.add("engine.retries")
            pending.appendleft((lo, hi, attempt + 1))
            return
        if self.strict:
            raise ReproError(
                f"distance chunk {lo}:{hi} failed after {attempt + 1} attempt(s): {err}"
            )
        obs.add("engine.chunks_failed")
        diag.error(
            "distance/chunk-failed",
            f"tasks {lo}:{hi} degraded to fail_value after {attempt + 1} attempt(s): {err}",
        )
        run.values[lo:hi] = [run.fail_value] * (hi - lo)

    def _expire_wave(self, unfinished, run: "_PoolRun") -> None:
        """The run spent its wall-clock budget: degrade every unfinished
        chunk at once (the caller kills the workers still running one).
        Strict mode raises instead."""
        obs.add("engine.wave_timeouts")
        if self.strict:
            raise ReproError(
                f"distance chunk wave exceeded wave_timeout={self.wave_timeout}s "
                f"with {len(unfinished)} chunk(s) unfinished"
            )
        for lo, hi, _attempt in sorted(unfinished):
            obs.add("engine.chunks_failed")
            diag.error(
                "distance/chunk-failed",
                f"tasks {lo}:{hi} degraded to fail_value: wave exceeded "
                f"wave_timeout={self.wave_timeout}s",
            )
            run.values[lo:hi] = [run.fail_value] * (hi - lo)


def _stop(workers: list[_Worker], finished: bool) -> None:
    """End every worker and reap it. After a finished run all of them are
    idle and stop on a ``None`` message; on any other exit they are killed,
    busy or not. A ``None`` cannot be replaced by closing the pipe: a later
    worker inherited the parent's end of every earlier pipe, so an earlier
    worker would never read end of file."""
    for w in workers:
        if finished:
            w.send(None)
        else:
            w.proc.kill()
    for w in workers:
        w.proc.join()
        w.conn.close()
