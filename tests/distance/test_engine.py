"""DistanceEngine scheduling: serial/parallel equivalence, counters,
checkpoint/resume, and the worker-init degrade path."""

import numpy as np
import pytest

from repro import obs
from repro.ckpt import CheckpointStore
from repro.distance.engine import DistanceEngine, _make_worker_setup
from repro.distance.ted import get_disk_cache, set_disk_cache
from repro.parallel import pool as pool_mod
from repro.parallel.pool import _run_chunk, _worker_init
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
KEYS = [f"task:{i}" for i in TASKS]
EXPECTED = [x * x for x in TASKS]


class TestCheckpointResume:
    def test_completed_run_discards_checkpoint(self, tmp_path):
        store = CheckpointStore(tmp_path)
        eng = DistanceEngine(checkpoint=store)
        assert eng.map_tasks(_square, TASKS, keys=KEYS) == EXPECTED
        assert store.run_keys() == []  # nothing left to resume

    def test_interrupt_saves_checkpoint_and_resume_skips_done(self, tmp_path):
        store = CheckpointStore(tmp_path)
        calls = {"n": 0}

        def flaky(task):
            if calls["n"] >= 4:
                raise KeyboardInterrupt
            calls["n"] += 1
            return task * task

        eng = DistanceEngine(checkpoint=store, checkpoint_every=0.0)
        with pytest.raises(KeyboardInterrupt):
            eng.map_tasks(flaky, TASKS, keys=KEYS)
        assert eng.last_checkpoint is not None and eng.last_checkpoint.exists()

        resumed_calls = {"n": 0}

        def counting(task):
            resumed_calls["n"] += 1
            return task * task

        with obs.collect() as col:
            out = DistanceEngine(checkpoint=store, resume=True).map_tasks(
                counting, TASKS, keys=KEYS
            )
        assert out == EXPECTED
        assert resumed_calls["n"] == len(TASKS) - 4  # only unfinished work
        assert col.counters["ckpt.loaded"] == 4
        assert store.run_keys() == []  # completed resume cleans up

    def test_interrupt_emits_resumable_diagnostic(self, tmp_path):
        from repro import diag

        def boom(task):
            if task >= 3:
                raise KeyboardInterrupt
            return task

        with diag.capture() as sink:
            with pytest.raises(KeyboardInterrupt):
                DistanceEngine(checkpoint=CheckpointStore(tmp_path)).map_tasks(
                    boom, TASKS, keys=KEYS
                )
        codes = sink.by_code()
        assert codes.get("distance/interrupted") == 1
        assert "resumable from" in sink.diagnostics[0].message

    def test_resume_without_checkpoint_computes_everything(self, tmp_path):
        with obs.collect() as col:
            out = DistanceEngine(
                checkpoint=CheckpointStore(tmp_path), resume=True
            ).map_tasks(_square, TASKS, keys=KEYS)
        assert out == EXPECTED
        assert "ckpt.loaded" not in col.counters

    def test_parallel_run_checkpoints_and_resumes(self, tmp_path):
        store = CheckpointStore(tmp_path)
        eng = DistanceEngine(jobs=2, chunk_size=3, checkpoint=store, checkpoint_every=0.0)
        assert eng.map_tasks(_square, TASKS, keys=KEYS) == EXPECTED

        # simulate a torn run: seed a partial checkpoint, then resume parallel
        from repro.ckpt import run_key_for

        store.save(run_key_for(KEYS), {KEYS[i]: float(EXPECTED[i]) for i in range(6)})
        with obs.collect() as col:
            out = DistanceEngine(
                jobs=2, chunk_size=2, checkpoint=store, resume=True
            ).map_tasks(_square, TASKS, keys=KEYS)
        assert out == EXPECTED
        assert col.counters["ckpt.loaded"] == 6
        assert col.counters["engine.chunks"] == 2  # only 4 pending tasks scheduled

    def test_no_keys_means_no_checkpointing(self, tmp_path):
        store = CheckpointStore(tmp_path)
        DistanceEngine(checkpoint=store).map_tasks(_square, TASKS)
        assert store.run_keys() == []


def _stage(setup=None, init_counter="engine.worker_init_errors"):
    return {
        "fn": _square,
        "tasks": TASKS,
        "setup": setup,
        "teardown": None,
        "init_counter": init_counter,
    }


class TestWorkerInitDegrade:
    """Direct coverage of the `_worker_init` degrade path: a broken stage or
    cache must leave the worker cache-off and flagged, never raise."""

    @pytest.fixture(autouse=True)
    def _restore_state(self):
        prev_stage = pool_mod._STAGE
        prev_cache = get_disk_cache()
        yield
        pool_mod._STAGE = prev_stage
        pool_mod._INIT_FAILED = False
        set_disk_cache(prev_cache)

    def test_missing_stage_degrades_and_flags(self):
        pool_mod._STAGE = None
        _worker_init()
        assert pool_mod._INIT_FAILED is True

    def test_unusable_cache_root_degrades_and_flags(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("file where the cache dir should be")
        pool_mod._STAGE = _stage(setup=_make_worker_setup(str(blocker / "cache")))
        _worker_init()
        assert pool_mod._INIT_FAILED is True
        assert get_disk_cache() is None

    def test_healthy_init_without_cache(self):
        pool_mod._STAGE = _stage(setup=_make_worker_setup(None))
        _worker_init()
        assert pool_mod._INIT_FAILED is False
        assert get_disk_cache() is None

    def test_degraded_worker_counts_in_next_chunk(self):
        pool_mod._STAGE = None
        _worker_init()  # sets _INIT_FAILED
        pool_mod._STAGE = _stage()
        out, counters, _payload = _run_chunk(((0, 3), 0))
        assert out == [0, 1, 4]
        assert counters["engine.worker_init_errors"] == 1
