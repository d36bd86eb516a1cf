"""Watchdog fault tolerance: injected kills/hangs/exceptions must never
change results, and retry exhaustion degrades (or fail-fasts under strict).

Faults are injected through the worker-side ``REPRO_CHAOS`` hook — the same
hook ``benchmarks/chaos_engine.py`` drives at corpus scale.
"""

import math

import pytest

from repro import diag, obs
from repro.distance.engine import DistanceEngine
from repro.parallel.pool import _parse_chaos
from repro.util.errors import ReproError

TASKS = list(range(8))
EXPECTED = [x * x for x in TASKS]


def _square(task):
    return task * task


def _engine(**kw):
    kw.setdefault("jobs", 2)
    kw.setdefault("chunk_size", 2)
    kw.setdefault("chunk_timeout", 10.0)
    kw.setdefault("retries", 2)
    kw.setdefault("backoff_s", 0.05)
    return DistanceEngine(**kw)


class TestChaosSpecParsing:
    def test_modes_indices_and_always_flag(self):
        assert _parse_chaos("kill@3, hang@5 ,exc!@7") == [
            ("kill", 3, False),
            ("hang", 5, False),
            ("exc", 7, True),
        ]

    def test_malformed_parts_ignored(self):
        assert _parse_chaos("bogus@1,kill@x,@3,,kill") == []

    def test_semicolons_accepted(self):
        assert _parse_chaos("kill@1;exc@2") == [("kill", 1, False), ("exc", 2, False)]


class TestInjectedFaults:
    def test_worker_exception_is_retried(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "exc@3")
        with obs.collect() as col:
            out = _engine().map_tasks(_square, TASKS)
        assert out == EXPECTED
        assert col.counters["engine.retries"] >= 1

    def test_killed_worker_chunk_is_rescheduled(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "kill@1")
        with obs.collect() as col:
            out = _engine(chunk_timeout=1.0).map_tasks(_square, TASKS)
        assert out == EXPECTED
        assert col.counters["engine.chunk_timeouts"] >= 1
        assert col.counters["engine.worker_deaths"] >= 1
        assert col.counters["engine.retries"] >= 1

    def test_hung_worker_chunk_is_rescheduled(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "hang@5")
        monkeypatch.setenv("REPRO_CHAOS_HANG_S", "30")
        with obs.collect() as col:
            out = _engine(chunk_timeout=1.0).map_tasks(_square, TASKS)
        assert out == EXPECTED
        assert col.counters["engine.chunk_timeouts"] >= 1

    def test_no_timeout_configured_still_recovers_exceptions(self, monkeypatch):
        # exceptions surface through the pool immediately — no deadline needed
        monkeypatch.setenv("REPRO_CHAOS", "exc@0")
        out = _engine(chunk_timeout=None).map_tasks(_square, TASKS)
        assert out == EXPECTED


class TestRetryExhaustion:
    def test_degrades_to_fail_value_with_diagnostic(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "exc!@0")  # fails on every attempt
        with diag.capture() as sink, obs.collect() as col:
            out = _engine(retries=1).map_tasks(_square, TASKS)
        assert math.isnan(out[0]) and math.isnan(out[1])  # chunk 0:2 degraded
        assert out[2:] == EXPECTED[2:]
        assert sink.by_code() == {"distance/chunk-failed": 1}
        assert col.counters["engine.chunks_failed"] == 1
        assert col.counters["engine.retries"] == 1

    def test_custom_fail_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "exc!@0")
        out = _engine(retries=0).map_tasks(_square, TASKS, fail_value=-1.0)
        assert out[:2] == [-1.0, -1.0] and out[2:] == EXPECTED[2:]

    def test_strict_mode_fails_fast(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "exc!@0")
        with pytest.raises(ReproError, match="failed after 2 attempt"):
            _engine(retries=1, strict=True).map_tasks(_square, TASKS)

    def test_retries_zero_means_single_attempt(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "exc!@4")
        with obs.collect() as col:
            out = _engine(retries=0).map_tasks(_square, TASKS)
        assert math.isnan(out[4])
        assert "engine.retries" not in col.counters


class TestValidation:
    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            DistanceEngine(chunk_timeout=0)
        with pytest.raises(ValueError):
            DistanceEngine(chunk_timeout=-1.5)
        with pytest.raises(ValueError):
            DistanceEngine(retries=-1)

    def test_task_keys_are_not_accepted(self):
        # resume goes through the TED cache; tasks carry no identity keys
        with pytest.raises(TypeError):
            DistanceEngine().map_tasks(_square, [1, 2, 3], keys=["a", "b", "c"])
