"""ChunkedPool behaviour independent of the distance engine's caching.

The engine suite covers cache integration and worker deaths; these tests
pin the pool contract: ordering, the ``engine.*`` counter names,
degrade-vs-strict failure handling, argument validation and that no
worker outlives a run.
"""

import multiprocessing
import signal

import pytest

from repro import diag, obs
from repro.parallel import ChunkedPool, PoolResult
from repro.util.errors import ReproError


def _square(x):
    return x * x


def _count_and_square(x):
    obs.add("pooltest.calls")
    return x * x


def _explode_on_three(x):
    if x == 3:
        raise ValueError("task three always fails")
    return x * x


def _prepare_count(tasks):
    obs.add("pooltest.prepare_tasks", len(tasks))


def _prepare_boom(tasks):
    raise RuntimeError("warm-up exploded")


class TestSerial:
    def test_empty_tasks(self):
        res = ChunkedPool().run(_square, [])
        assert isinstance(res, PoolResult)
        assert res.values == [] and res.parallel is False

    def test_preserves_order_and_reports_serial(self):
        res = ChunkedPool(jobs=1).run(_square, [3, 1, 2])
        assert res.values == [9, 1, 4]
        assert res.parallel is False

    def test_custom_prefix_gauges_workers(self):
        with obs.collect() as col:
            ChunkedPool().run(_square, [1, 2])
        assert col.gauges["engine.workers"] == 1
        assert "engine.chunks" not in col.counters


class TestParallel:
    def test_matches_serial(self):
        tasks = list(range(23))
        serial = ChunkedPool(jobs=1).run(_square, tasks).values
        parallel = ChunkedPool(jobs=2, chunk_size=3).run(_square, tasks).values
        assert parallel == serial
        assert multiprocessing.active_children() == []  # idle workers were stopped

    def test_prefix_applies_to_all_counters(self):
        with obs.collect() as col:
            res = ChunkedPool(jobs=2, chunk_size=2).run(_square, list(range(10)))
        assert res.parallel is True
        assert col.counters["engine.chunks"] == 5
        assert col.gauges["engine.workers"] == 2

    def test_worker_counters_merge_into_parent(self):
        with obs.collect() as col:
            ChunkedPool(jobs=2, chunk_size=2).run(_count_and_square, list(range(8)))
        assert col.counters["pooltest.calls"] == 8


class TestFailureHandling:
    def test_degrades_to_fail_value_with_custom_code(self):
        pool = ChunkedPool(jobs=2, chunk_size=1, retries=1)
        with diag.capture() as sink, obs.collect() as col:
            res = pool.run(_explode_on_three, [1, 2, 3, 4], fail_value=-1.0)
        # only task 2 holds fail_value
        assert res.values == [1, 4, -1.0, 16]
        assert sink.by_code().get("distance/chunk-failed") == 1
        assert "ValueError: task three always fails" in sink.diagnostics[0].message
        assert col.counters["engine.retries"] >= 1
        assert col.counters["engine.chunks_failed"] == 1

    def test_strict_raises_with_label(self):
        pool = ChunkedPool(jobs=2, chunk_size=1, retries=0, strict=True)
        with pytest.raises(ReproError, match="distance chunk 2:3 failed"):
            pool.run(_explode_on_three, [1, 2, 3, 4])


class TestValidation:
    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            ChunkedPool(jobs=0)
        with pytest.raises(ValueError, match="chunk_size must be >= 1"):
            ChunkedPool(chunk_size=0)
        with pytest.raises(ValueError, match="wave_timeout must be > 0"):
            ChunkedPool(wave_timeout=0.0)
        with pytest.raises(ValueError, match="retries must be >= 0"):
            ChunkedPool(retries=-1)


def _sleepy(x):
    import time as _time

    _time.sleep(x)
    return x


class TestWaveTimeout:
    """Whole-wave wall-clock budget: on the forked path unfinished chunks
    degrade at once so the calling thread (the serve daemon's engine
    thread) gets its result list back on a bounded schedule. The serial
    path never reads the budget."""

    def test_expired_wave_degrades_remaining_chunks(self):
        pool = ChunkedPool(jobs=2, chunk_size=1, wave_timeout=0.5, retries=0)
        with diag.capture() as sink, obs.collect() as col:
            res = pool.run(_sleepy, [0.0, 0.0, 30.0, 30.0], fail_value=-1.0)
        # the fast tasks finished; the sleepers degraded when the wave expired
        assert res.values == [0.0, 0.0, -1.0, -1.0]
        assert col.counters["engine.wave_timeouts"] == 1
        assert col.counters["engine.chunks_failed"] == 2
        assert sink.by_code().get("distance/chunk-failed") == 2
        assert multiprocessing.active_children() == []  # the sleepers were killed

    def test_serial_wave_runs_past_the_budget(self):
        # jobs=1 runs every task to completion: no task degrades and no
        # wave_timeouts counter, however far the wave overruns its budget
        with diag.capture() as sink, obs.collect() as col:
            res = ChunkedPool(jobs=1, wave_timeout=0.05).run(
                _sleepy, [0.04, 0.04, 0.04], fail_value=-1.0
            )
        assert res.values == [0.04, 0.04, 0.04]
        assert res.parallel is False
        assert "engine.wave_timeouts" not in col.counters
        assert not sink.diagnostics

    def test_strict_wave_timeout_raises(self):
        pool = ChunkedPool(
            jobs=2, chunk_size=1, wave_timeout=0.3, retries=0, strict=True
        )
        with pytest.raises(ReproError, match="wave_timeout"):
            pool.run(_sleepy, [30.0, 30.0])

    def test_fast_wave_unaffected(self):
        with obs.collect() as col:
            res = ChunkedPool(jobs=2, chunk_size=1, wave_timeout=30.0).run(_square, [1, 2, 3])
        assert res.values == [1, 4, 9]
        assert "engine.wave_timeouts" not in col.counters


def _sleepy_unless_three(x):
    if x == 3:
        raise ValueError("task three always fails")
    return _sleepy(x)


def _alarm_interrupt(signum, frame):
    raise KeyboardInterrupt


class TestNoWorkerOutlivesARun:
    """Exits other than a finished run kill and reap every worker, busy or
    idle (a finished run and a spent budget are checked above)."""

    def test_strict_raise_with_a_busy_worker(self):
        pool = ChunkedPool(jobs=2, chunk_size=1, retries=0, strict=True)
        with pytest.raises(ReproError, match="distance chunk 0:1 failed"):
            pool.run(_sleepy_unless_three, [3, 30.0])
        assert multiprocessing.active_children() == []

    def test_interrupt_with_a_busy_and_an_idle_worker(self):
        prev = signal.signal(signal.SIGALRM, _alarm_interrupt)
        signal.setitimer(signal.ITIMER_REAL, 0.5)
        try:
            with pytest.raises(KeyboardInterrupt):
                ChunkedPool(jobs=2, chunk_size=1).run(_sleepy, [0.0, 30.0])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, prev)
        assert multiprocessing.active_children() == []


class TestPrepareHook:
    """Chunk-level warm-up: sees each chunk's task slice once, and a
    failure degrades to a counter without touching the values."""

    def test_serial_prepare_sees_all_tasks_once(self):
        with obs.collect() as col:
            res = ChunkedPool(jobs=1).run(_square, [1, 2, 3], prepare=_prepare_count)
        assert res.values == [1, 4, 9]
        assert col.counters["pooltest.prepare_tasks"] == 3

    def test_parallel_prepare_runs_per_chunk(self):
        with obs.collect() as col:
            res = ChunkedPool(jobs=2, chunk_size=2).run(
                _square, list(range(6)), prepare=_prepare_count
            )
        assert res.values == [x * x for x in range(6)]
        # 3 chunks x one prepare each, together covering every task
        assert col.counters["pooltest.prepare_tasks"] == 6
        assert "engine.prepare_errors" not in col.counters

    def test_prepare_failure_degrades_to_counter(self):
        with obs.collect() as col:
            res = ChunkedPool(jobs=1).run(_square, [1, 2, 3], prepare=_prepare_boom)
        assert res.values == [1, 4, 9]
        assert col.counters["engine.prepare_errors"] == 1

    def test_parallel_prepare_failure_degrades_to_counter(self):
        with obs.collect() as col:
            res = ChunkedPool(jobs=2, chunk_size=2).run(
                _square, [1, 2, 3, 4], prepare=_prepare_boom
            )
        assert res.values == [1, 4, 9, 16]
        assert col.counters["engine.prepare_errors"] == 2


class TestWaveCounter:
    """`engine.waves` — one increment per non-empty run(); the serve
    layer's request-coalescing tests gate on exactly this counter."""

    def test_one_wave_per_run(self):
        with obs.collect() as col:
            pool = ChunkedPool()
            pool.run(_square, [1, 2, 3])
            pool.run(_square, [4])
        assert col.counters["engine.waves"] == 2

    def test_empty_run_is_not_a_wave(self):
        with obs.collect() as col:
            ChunkedPool().run(_square, [])
        assert "engine.waves" not in col.counters

    def test_parallel_run_is_still_one_wave(self):
        with obs.collect() as col:
            ChunkedPool(jobs=2, chunk_size=1).run(_square, [1, 2, 3, 4])
        assert col.counters["engine.waves"] == 1
