"""Interrupting a live engine run must leave no zombie workers, flush the
TED cache, and leave the workload resumable from that cache.

The subprocess tests drive a real forked pool and send it SIGINT or
SIGTERM mid-run — the regression they pin: KeyboardInterrupt during the
pool phase used to leave live fork workers behind and lose all progress.
One sends SIGTERM to the whole process group, as ``timeout`` and CI
cancellation do, while one of the two workers sits idle.
The in-process test interrupts a serial run inside the exact TED kernel,
where the time of a real workload goes.
"""

import importlib
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro import obs
from repro.cache import TedCacheStore
from repro.distance.engine import DistanceEngine
from repro.distance.ted import clear_ted_cache, ted
from repro.trees import from_sexpr
from repro.trees.hashing import cached_structural_hash
from repro.workflow.comparer import MetricSpec, divergence_matrix

REPO = Path(__file__).resolve().parents[2]

N_TASKS = 200


def pairs(n: int) -> list:
    """One distinct tree pair per task, so every task is its own entry."""
    return [
        (
            from_sexpr(f"(f{i} (a (b c{i}) (d e)) (g h{i} (i j)))"),
            from_sexpr(f"(f{i} (a (b x{i}) (d e f)) (g (i k{i})))"),
        )
        for i in range(n)
    ]


_SCRIPT = textwrap.dedent(
    """
    import sys, time
    sys.path[:0] = [{src!r}, {repo!r}]
    from repro import diag
    from repro.cache import TedCacheStore
    from repro.distance.engine import DistanceEngine
    from repro.distance.ted import ted
    from tests.workflow.test_interrupt import pairs

    def stall_then_ted(task):
        seconds, pair = task
        time.sleep(seconds)
        return ted(*pair).distance

    eng = DistanceEngine(jobs=2, chunk_size=1, cache=TedCacheStore({root!r}))
    print("WORKERS-UP", flush=True)
    with diag.capture() as sink:
        try:
            eng.map_tasks(stall_then_ted, {tasks})
        except KeyboardInterrupt:
            # the engine has already killed the workers and flushed the
            # cache before re-raising; report our own pool children
            import multiprocessing
            print("LIVE-CHILDREN %d" % len(multiprocessing.active_children()), flush=True)
            for d in sink.diagnostics:
                print("DIAG %s %s" % (d.code, d.message), flush=True)
            print("INTERRUPTED", flush=True)
            sys.exit(130)
    sys.exit(0)
    """
)


def _entries(root: Path) -> int:
    return TedCacheStore(root).stats()["entries"]


def _interrupt_mid_pool(
    root: Path, send, tasks: str = f"[(0.1, p) for p in pairs({N_TASKS})]"
) -> str:
    """Run the script over ``tasks`` (an expression of ``(seconds, pair)``
    tasks), signal it once the workers have flushed some distances, check
    it exits 130 and return its stdout. The script runs in its own session,
    so ``send`` may signal its whole process group."""
    script = _SCRIPT.format(src=str(REPO / "src"), repo=str(REPO), tasks=tasks, root=str(root))
    proc = subprocess.Popen(
        [sys.executable, "-c", script],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline and not _entries(root):
            time.sleep(0.05)
            if proc.poll() is not None:
                break
        assert _entries(root), "run never flushed a distance before finishing"
        send(proc)
        out, err = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    assert proc.returncode == 130, f"stdout={out!r} stderr={err!r}"
    return out


def _rerun_kernels(root: Path) -> int:
    """Re-run the whole workload serially on ``root``; returns the exact
    kernels it ran."""
    clear_ted_cache()
    with obs.collect() as col:
        values = DistanceEngine(cache=TedCacheStore(root)).map_tasks(
            lambda pair: ted(*pair).distance, pairs(N_TASKS)
        )
    clear_ted_cache()
    assert values == [ted(*pair).distance for pair in pairs(N_TASKS)]
    return col.counters.get("ted.zs.calls", 0)


@pytest.mark.skipif(sys.platform == "win32", reason="POSIX signals required")
class TestSigintDuringPoolPhase:
    def test_sigint_flushes_cache_and_is_resumable(self, tmp_path):
        root = tmp_path / "root"
        out = _interrupt_mid_pool(root, lambda p: p.send_signal(signal.SIGINT))
        assert "INTERRUPTED" in out
        # the pool was terminated before the engine re-raised
        assert "LIVE-CHILDREN 0" in out, out
        # the parent did no TED work: the workers flushed every finished chunk
        note = f"DIAG distance/interrupted run interrupted; flushed 0 TED distance(s) to {root} "
        assert note + "on exit, after every finished worker chunk flushed its own" in out, out

        flushed = _entries(root)
        assert 0 < flushed < N_TASKS  # partial progress persisted
        # the interrupted workload resumes, recomputing only unfinished pairs
        assert _rerun_kernels(root) == N_TASKS - flushed

    def test_sigterm_behaves_like_sigint(self, tmp_path):
        root = tmp_path / "root"
        out = _interrupt_mid_pool(root, lambda p: os.kill(p.pid, signal.SIGTERM))
        # the engine maps SIGTERM to KeyboardInterrupt during the run
        assert "INTERRUPTED" in out
        assert "LIVE-CHILDREN 0" in out, out
        flushed = _entries(root)
        assert 0 < flushed < N_TASKS
        assert _rerun_kernels(root) == N_TASKS - flushed

    def test_sigterm_to_the_process_group_with_an_idle_worker(self, tmp_path):
        # the first worker finishes its one fast task and waits for work
        # that never comes; the second stalls. SIGTERM then reaches the
        # parent and both workers at once.
        root = tmp_path / "root"

        def term_group(proc):
            time.sleep(0.5)  # let the first worker go idle
            os.killpg(proc.pid, signal.SIGTERM)

        out = _interrupt_mid_pool(root, term_group, tasks="list(zip([0, 60], pairs(2)))")
        assert "INTERRUPTED" in out
        assert "LIVE-CHILDREN 0" in out, out
        note = f"DIAG distance/interrupted run interrupted; flushed 0 TED distance(s) to {root} "
        assert note + "on exit, after every finished worker chunk flushed its own" in out, out
        assert _entries(root) == 1  # the finished chunk's distance survives


class TestResumeInsideKernelPhase:
    """Serial runs spend their time inside the chunk ``prepare`` hook, which
    runs every exact kernel before the first task finishes: interrupting
    there must still persist each finished kernel."""

    def test_rerun_runs_only_the_kernels_that_never_finished(
        self, tmp_path, monkeypatch, stream_serial, stream_omp, stream_cuda, stream_sycl_usm
    ):
        cbs = [stream_serial, stream_omp, stream_cuda, stream_sycl_usm]
        spec = MetricSpec("Tsem")
        n_pairs, k = 6, 2

        clear_ted_cache()
        with obs.collect() as col:
            want = divergence_matrix(cbs, spec)
        # every pair is large enough for the per-pair kernel, none prunes
        assert col.counters["ted.zs.calls"] == n_pairs

        tedmod = importlib.import_module("repro.distance.ted")
        kernel = tedmod.zhang_shasha_distance
        finished: dict[tuple[str, str], float] = {}

        def interrupt_after_k(t1, t2):
            if len(finished) == k:
                raise KeyboardInterrupt
            d = kernel(t1, t2)
            finished[cached_structural_hash(t1), cached_structural_hash(t2)] = float(d)
            return d

        clear_ted_cache()
        monkeypatch.setattr(tedmod, "zhang_shasha_distance", interrupt_after_k)
        with pytest.raises(KeyboardInterrupt):
            divergence_matrix(cbs, spec, engine=DistanceEngine(cache=TedCacheStore(tmp_path)))
        monkeypatch.undo()

        store = TedCacheStore(tmp_path)
        assert store.stats()["entries"] == k
        assert all(store.lookup(h1, h2) == d for (h1, h2), d in finished.items())

        clear_ted_cache()
        with obs.collect() as col:
            got = divergence_matrix(cbs, spec, engine=DistanceEngine(cache=TedCacheStore(tmp_path)))
        clear_ted_cache()
        assert col.counters["ted.zs.calls"] == n_pairs - k
        assert col.counters["cache.disk.hit"] == k
        assert got.tobytes() == want.tobytes()
