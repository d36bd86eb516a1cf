"""Engine + persistent cache integration: warm runs skip the DP entirely,
``--no-cache`` bypasses the store, and cached matrices are bit-identical."""

import argparse

import numpy as np
import pytest

from repro import obs
from repro.cache import TedCacheStore
from repro.distance.engine import DistanceEngine
from repro.distance.ted import clear_ted_cache, get_disk_cache
from repro.trees import from_sexpr
from repro.workflow.cli import _cache_dir_from_args, _engine_from_args

TREES = [
    "(a (b c) (d e))",
    "(a (b x) (d e f))",
    "(q (r s) (t u v))",
    "(a (b c) (d w))",
]


def _tasks():
    trees = [from_sexpr(s) for s in TREES]
    return [(trees[i], trees[j]) for i in range(len(trees)) for j in range(i + 1, len(trees))]


def _ted_task(task):
    from repro.distance.ted import ted

    a, b = task
    return ted(a, b).distance


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_ted_cache()
    yield
    clear_ted_cache()


class TestWarmRuns:
    def test_warm_run_performs_zero_zs_evaluations(self, tmp_path):
        store = TedCacheStore(tmp_path)
        with obs.collect() as cold:
            first = DistanceEngine(cache=store).map_tasks(_ted_task, _tasks())
        assert cold.counters["ted.zs.calls"] > 0
        assert cold.counters["cache.disk.miss"] == len(first)

        clear_ted_cache()  # drop the in-process memo: only the disk remains
        with obs.collect() as warm:
            second = DistanceEngine(cache=TedCacheStore(tmp_path)).map_tasks(
                _ted_task, _tasks()
            )
        assert warm.counters.get("ted.zs.calls", 0) == 0
        assert warm.counters["cache.disk.hit"] == len(second)
        assert np.array_equal(np.asarray(first), np.asarray(second))

    def test_cache_detached_after_run(self, tmp_path):
        DistanceEngine(cache=TedCacheStore(tmp_path)).map_tasks(_ted_task, _tasks())
        assert get_disk_cache() is None  # engine restored the previous (no) store

    def test_no_cache_engine_never_touches_disk(self, tmp_path):
        with obs.collect() as col:
            DistanceEngine().map_tasks(_ted_task, _tasks())
        assert "cache.disk.miss" not in col.counters
        assert not list(tmp_path.iterdir())


class TestCliResolution:
    def _args(self, **kw) -> argparse.Namespace:
        return argparse.Namespace(jobs=1, cache_dir=None, no_cache=False, **kw)

    def test_no_cache_flag_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        args = self._args()
        args.no_cache = True
        args.cache_dir = str(tmp_path)
        assert _cache_dir_from_args(args) is None
        assert _engine_from_args(args).cache is None

    def test_cache_dir_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "/nonexistent/env/dir")
        args = self._args()
        args.cache_dir = str(tmp_path)
        engine = _engine_from_args(args)
        assert str(engine.cache.root) == str(tmp_path)

    def test_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        engine = _engine_from_args(self._args())
        assert engine.cache is not None
        assert str(engine.cache.root) == str(tmp_path)

    def test_default_is_uncached_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        engine = _engine_from_args(self._args())
        assert engine.cache is None and engine.jobs == 1

    def test_default_has_no_checkpoint_and_lenient_watchdog(self):
        engine = _engine_from_args(self._args())
        # an interrupted run resumes from the TED cache; there is no
        # second store to configure
        assert not hasattr(engine, "checkpoint") and not hasattr(engine, "resume")
        assert engine.retries == 2 and engine.strict is False

    def test_fault_tolerance_flags_thread_through(self):
        args = self._args(retries=5, strict=True)
        engine = _engine_from_args(args)
        assert engine.retries == 5
        assert engine.strict is True
