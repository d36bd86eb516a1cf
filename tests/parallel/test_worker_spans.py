"""Distributed tracing: worker span/histogram capture and parent adoption.

The contract under test (DESIGN.md §"Span taxonomy", worker lanes):

* a collecting parent's trace contains every worker chunk span exactly
  once, tagged with the worker's real pid and parented under the pool
  span;
* worker histograms merge into the parent by bucket addition, so span
  latency distributions cover the whole fan-out;
* domain counters are bit-identical between a serial and a parallel run
  (scheduling counters — chunks/workers/retries — exist only in the
  parallel path and are excluded);
* capture is off when nobody collects: the worker returns no payload.
"""

import os

import pytest

from repro import obs
from repro.obs import chrome_trace
from repro.parallel import pool as pool_mod
from repro.parallel.pool import ChunkedPool, _run_chunk, _Wave


def _square(x):
    with obs.span("task.sq", x=x):
        obs.add("work.calls")
        obs.observe("work.latency", 0.001 * (x + 1))
        return x * x


def _fork_available() -> bool:
    import multiprocessing

    return "fork" in multiprocessing.get_all_start_methods()


needs_fork = pytest.mark.skipif(not _fork_available(), reason="requires fork start method")


@needs_fork
class TestAdoption:
    def _run(self, n=8, jobs=2, chunk_size=2):
        pool = ChunkedPool(jobs=jobs, chunk_size=chunk_size)
        with obs.collect() as col:
            res = pool.run(_square, list(range(n)))
        assert res.values == [x * x for x in range(n)]
        return col

    def test_every_chunk_span_exactly_once(self):
        col = self._run(n=8, chunk_size=2)
        chunk_spans = [r for r in col.spans if r.name == "engine.chunk"]
        assert len(chunk_spans) == 4
        bounds = sorted((r.attrs["lo"], r.attrs["hi"]) for r in chunk_spans)
        assert bounds == [(0, 2), (2, 4), (4, 6), (6, 8)]

    def test_chunk_spans_carry_foreign_worker_pids(self):
        col = self._run()
        pids = {r.pid for r in col.spans if r.name == "engine.chunk"}
        assert pids and all(p not in (0, os.getpid()) for p in pids)

    def test_chunk_spans_parent_under_pool_span(self):
        col = self._run()
        pool_span = next(r for r in col.spans if r.name == "engine.pool")
        for rec in col.spans:
            if rec.name == "engine.chunk":
                assert rec.parent == pool_span.index

    def test_task_spans_nest_under_their_chunk(self):
        col = self._run(n=4, chunk_size=2)
        by_index = {r.index: r for r in col.spans}
        task_spans = [r for r in col.spans if r.name == "task.sq"]
        assert len(task_spans) == 4
        for rec in task_spans:
            assert by_index[rec.parent].name == "engine.chunk"
            assert rec.pid == by_index[rec.parent].pid

    def test_worker_histograms_merge_into_parent(self):
        col = self._run(n=8)
        assert col.hists["task.sq"].count == 8
        assert col.hists["work.latency"].count == 8
        # explicit observations keep their exact moments through the merge
        assert col.hists["work.latency"].min == pytest.approx(0.001)
        assert col.hists["work.latency"].max == pytest.approx(0.008)

    def test_trace_export_has_one_lane_per_worker(self):
        col = self._run()
        tr = chrome_trace(col)
        worker_pids = {r.pid for r in col.spans if r.pid}
        lane_pids = {e["pid"] for e in tr["traceEvents"] if e.get("ph") == "X"}
        assert worker_pids <= lane_pids
        named = {
            e["pid"]: e["args"]["name"]
            for e in tr["traceEvents"]
            if e["name"] == "process_name"
        }
        for pid in worker_pids:
            assert named[pid] == f"silvervale worker {pid}"

    def test_adopted_spans_lie_inside_the_pool_span_window(self):
        col = self._run()
        pool_span = next(r for r in col.spans if r.name == "engine.pool")
        for rec in col.spans:
            if rec.name == "engine.chunk":
                # generous slack: wall-clock re-anchoring across processes
                assert rec.start >= pool_span.start - 0.25
                assert rec.end <= pool_span.end + 0.25


@needs_fork
class TestCounterIdentity:
    def _domain_counters(self, col):
        return {k: v for k, v in col.counters.items() if not k.startswith("engine.")}

    def test_serial_and_parallel_counters_bit_identical(self):
        tasks = list(range(11))
        with obs.collect() as serial:
            ChunkedPool(jobs=1).run(_square, tasks)
        with obs.collect() as parallel:
            ChunkedPool(jobs=2, chunk_size=3).run(_square, tasks)
        assert self._domain_counters(serial) == self._domain_counters(parallel)
        assert parallel.counters["engine.chunks"] == 4  # scheduling counters exist


@needs_fork
class TestBoundedCapture:
    def test_span_cap_reports_drops(self, monkeypatch):
        monkeypatch.setattr(pool_mod, "_MAX_CHUNK_SPANS", 3)
        with obs.collect() as col:
            ChunkedPool(jobs=2, chunk_size=4).run(_square, list(range(8)))
        # per chunk: 1 chunk span + 4 task spans = 5 recorded, 3 shipped
        assert col.counters["engine.spans_dropped"] == 4
        assert len([r for r in col.spans if r.name == "engine.chunk"]) == 2

    def test_earliest_spans_survive_the_cap(self):
        with obs.collect() as worker_col:
            with obs.span("outer"):
                for _ in range(5):
                    with obs.span("inner"):
                        pass
        spans, dropped = worker_col.export_spans(limit=2)
        assert dropped == 4
        names = [s[0] for s in spans]
        assert names == ["outer", "inner"]  # parents precede children


class TestDisabledPath:
    def test_worker_returns_no_payload_without_capture(self):
        out, counters, payload = _run_chunk(_Wave(lambda x: x, [1, 2]), 0, 2, 0)
        assert out == [1, 2]
        assert payload is None

    def test_worker_builds_payload_with_capture(self):
        wave = _Wave(lambda x: x, [1, 2], capture=True)
        out, counters, payload = _run_chunk(wave, 0, 2, 0)
        assert payload is not None
        assert payload["pid"] == os.getpid()
        assert [s[0] for s in payload["spans"]] == ["engine.chunk"]
        assert "engine.chunk" in payload["hists"]
        assert payload["dropped"] == 0

    def test_pool_stages_capture_only_when_collecting(self):
        with obs.collect():
            run = pool_mod._PoolRun(1, None)
        assert run.collector is not None
        run2 = pool_mod._PoolRun(1, None)
        assert run2.collector is None
