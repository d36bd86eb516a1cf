"""Pool fault tolerance: injected kills and exceptions must never change
results, and retry exhaustion degrades (or fail-fasts under strict).

Faults are injected through the worker-side ``REPRO_CHAOS`` hook — the same
hook ``benchmarks/chaos_engine.py`` drives at corpus scale. A killed worker
must be seen on its pipe with no deadline configured, so the kill tests
run the engine in a child process bounded by ``communicate(timeout=...)``:
a pool that misses a dead worker fails the test instead of hanging it.
"""

import json
import math
import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

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
    kw.setdefault("retries", 2)
    return DistanceEngine(**kw)


REPO = Path(__file__).resolve().parents[2]

_CHILD = textwrap.dedent(
    """
    import json, sys
    sys.path[:0] = [{src!r}]
    from repro import diag, obs
    from repro.distance.engine import DistanceEngine

    def square(task):
        return task * task

    with diag.capture() as sink, obs.collect() as col:
        out = DistanceEngine(jobs=2, chunk_size=2, retries={retries}).map_tasks(
            square, list(range(8))
        )
    diags = [d.message for d in sink.diagnostics]
    print(json.dumps({{"values": out, "counters": dict(col.counters), "diags": diags}}))
    """
)


def _run_in_child(chaos: str, retries: int = 2, timeout: float = 30.0) -> dict:
    """``_engine(retries=retries).map_tasks(_square, TASKS)`` under
    ``REPRO_CHAOS=chaos`` in a child process; its values, counters and
    diagnostic messages."""
    proc = subprocess.Popen(
        [sys.executable, "-c", _CHILD.format(src=str(REPO / "src"), retries=retries)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env={**os.environ, "REPRO_CHAOS": chaos},
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"{chaos}: run still going after {timeout:g} s; the dead worker went unseen")
    assert proc.returncode == 0, err
    return json.loads(out)


class TestChaosSpecParsing:
    def test_modes_indices_and_always_flag(self):
        assert _parse_chaos("kill@3, exc@5 ,exc!@7") == [
            ("kill", 3, False),
            ("exc", 5, False),
            ("exc", 7, True),
        ]

    def test_malformed_parts_ignored(self):
        assert _parse_chaos("bogus@1,kill@x,@3,,kill,exc") == []

    def test_semicolons_accepted(self):
        assert _parse_chaos("kill@1;exc@2") == [("kill", 1, False), ("exc", 2, False)]


class TestInjectedFaults:
    def test_worker_exception_is_retried(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "exc@3")
        with obs.collect() as col:
            out = _engine().map_tasks(_square, TASKS)
        assert out == EXPECTED
        assert col.counters["engine.retries"] == 1
        assert "engine.worker_deaths" not in col.counters

    def test_killed_worker_chunk_is_rescheduled(self):
        # no deadline anywhere: the death reads as end of file on the
        # worker's pipe, which names the chunk it held
        got = _run_in_child("kill@1")
        assert got["values"] == DistanceEngine(jobs=1).map_tasks(_square, TASKS)
        assert got["counters"]["engine.worker_deaths"] == 1
        assert got["counters"]["engine.retries"] == 1
        assert not got["diags"]

    def test_killed_worker_exhausts_retries(self):
        got = _run_in_child("kill!@0", retries=1)
        assert math.isnan(got["values"][0]) and math.isnan(got["values"][1])
        assert got["values"][2:] == EXPECTED[2:]
        assert got["counters"]["engine.worker_deaths"] == 2
        assert got["counters"]["engine.chunks_failed"] == 1
        assert len(got["diags"]) == 1 and "died (exit code -9)" in got["diags"][0]

    def test_no_timeout_configured_still_recovers_exceptions(self, monkeypatch):
        # an exception comes back down the worker's pipe as the chunk's reply
        monkeypatch.setenv("REPRO_CHAOS", "exc@0")
        out = _engine().map_tasks(_square, TASKS)
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
            DistanceEngine(wave_timeout=0)
        with pytest.raises(ValueError):
            DistanceEngine(wave_timeout=-1.5)
        with pytest.raises(ValueError):
            DistanceEngine(retries=-1)

    def test_task_keys_are_not_accepted(self):
        # resume goes through the TED cache; tasks carry no identity keys
        with pytest.raises(TypeError):
            DistanceEngine().map_tasks(_square, [1, 2, 3], keys=["a", "b", "c"])
