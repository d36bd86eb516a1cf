"""DistanceEngine scheduling: serial/parallel equivalence, counters, the
interrupt report, and the worker-init degrade path."""

import multiprocessing

import numpy as np
import pytest

from repro import obs
from repro.distance.engine import DistanceEngine, _make_worker_setup
from repro.distance.ted import get_disk_cache, set_disk_cache
from repro.parallel.pool import _Wave, _worker_init, _worker_main
from repro.trees import from_sexpr


def _square(task):
    return task * task


def _ted_task(task):
    from repro.distance.ted import ted

    a, b = task
    return ted(a, b).distance


class TestMapTasks:
    def test_empty(self):
        assert DistanceEngine().map_tasks(_square, []) == []

    def test_serial_preserves_order(self):
        assert DistanceEngine().map_tasks(_square, [3, 1, 2]) == [9, 1, 4]

    def test_parallel_matches_serial(self):
        tasks = list(range(23))
        serial = DistanceEngine(jobs=1).map_tasks(_square, tasks)
        parallel = DistanceEngine(jobs=2).map_tasks(_square, tasks)
        assert serial == parallel

    def test_parallel_ted_matches_serial(self):
        trees = [
            from_sexpr("(a (b c) (d e))"),
            from_sexpr("(a (b x) (d e f))"),
            from_sexpr("(q (r s t))"),
            from_sexpr("(a (b c))"),
        ]
        tasks = [(t1, t2) for t1 in trees for t2 in trees]
        serial = DistanceEngine(jobs=1).map_tasks(_ted_task, tasks)
        parallel = DistanceEngine(jobs=3, chunk_size=2).map_tasks(_ted_task, tasks)
        assert np.array_equal(np.asarray(serial), np.asarray(parallel))

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError):
            DistanceEngine(jobs=0)
        with pytest.raises(ValueError):
            DistanceEngine(chunk_size=0)


class TestCounters:
    def test_serial_counters(self):
        with obs.collect() as col:
            DistanceEngine().map_tasks(_square, [1, 2, 3])
        assert col.counters["ted.pairs"] == 3
        assert col.gauges["engine.workers"] == 1
        assert "engine.chunks" not in col.counters

    def test_parallel_counters_and_worker_merge(self):
        with obs.collect() as col:
            DistanceEngine(jobs=2, chunk_size=2).map_tasks(_square, list(range(10)))
        assert col.counters["ted.pairs"] == 10
        assert col.counters["engine.chunks"] == 5
        assert col.gauges["engine.workers"] == 2

    def test_worker_ted_counters_reach_parent(self):
        from repro.distance.ted import clear_ted_cache

        clear_ted_cache()
        trees = [from_sexpr(f"(a (b c{i}) (d e))") for i in range(6)]
        tasks = [(trees[i], trees[j]) for i in range(6) for j in range(i + 1, 6)]
        with obs.collect() as col:
            DistanceEngine(jobs=2, chunk_size=4).map_tasks(_ted_task, tasks)
        # the DP ran somewhere (workers), and the deltas were merged here
        assert col.counters.get("ted.zs.calls", 0) > 0


TASKS = list(range(10))


class TestInterrupt:
    """An interrupted run flushes the TED cache it resumes from and says
    where: ``distance/interrupted`` names the root and the count flushed."""

    def test_interrupt_names_flushed_cache_root(self, tmp_path):
        from repro import diag
        from repro.cache import TedCacheStore
        from repro.distance.ted import clear_ted_cache

        clear_ted_cache()
        trees = [from_sexpr(f"(a (b c{i}) (d e{i} f))") for i in range(4)]
        tasks = [(trees[0], t) for t in trees[1:]]

        def interrupt_at_last(task):
            if task[1] is trees[-1]:
                raise KeyboardInterrupt
            return _ted_task(task)

        with diag.capture() as sink:
            with pytest.raises(KeyboardInterrupt):
                DistanceEngine(cache=TedCacheStore(tmp_path)).map_tasks(
                    interrupt_at_last, tasks
                )
        assert sink.by_code() == {"distance/interrupted": 1}
        msg = sink.diagnostics[0].message
        assert f"flushed 2 TED distance(s) to {tmp_path};" in msg
        assert TedCacheStore(tmp_path).stats()["entries"] == 2

    def test_interrupt_without_cache_says_nothing_persisted(self):
        from repro import diag

        def boom(task):
            raise KeyboardInterrupt

        with diag.capture() as sink:
            with pytest.raises(KeyboardInterrupt):
                DistanceEngine().map_tasks(boom, TASKS)
        assert "nothing was persisted" in sink.diagnostics[0].message


class TestWorkerInitDegrade:
    """Direct coverage of the worker-init degrade path: a broken cache must
    leave the worker cache-off and flagged, never raise."""

    @pytest.fixture(autouse=True)
    def _restore_state(self):
        prev_cache = get_disk_cache()
        yield
        set_disk_cache(prev_cache)

    def test_unusable_cache_root_degrades_and_flags(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("file where the cache dir should be")
        assert _worker_init(_make_worker_setup(str(blocker / "cache"))) is False
        assert get_disk_cache() is None

    def test_healthy_init_without_cache(self):
        assert _worker_init(_make_worker_setup(None)) is True
        assert get_disk_cache() is None

    def test_degraded_worker_counts_in_next_chunk(self):
        # the worker entry point run in-process: its first chunk counts the
        # degraded init, later chunks do not
        parent, child = multiprocessing.Pipe()
        for msg in ((0, 3, 0), (3, 5, 0), None):
            parent.send(msg)
        _worker_main(child, _Wave(_square, TASKS, setup=lambda: False))
        first, second = parent.recv(), parent.recv()
        parent.close()
        child.close()
        assert first[0] == [0, 1, 4] and second[0] == [9, 16]
        assert first[1]["engine.worker_init_errors"] == 1
        assert "engine.worker_init_errors" not in second[1]
