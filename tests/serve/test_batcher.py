"""WaveBatcher contract: dedup, in-flight join, wave counting, errors.

These tests use a recording fake runner (no engine) on a real event loop;
the daemon-level suite proves the same properties against ChunkedPool via
the ``engine.waves`` counter.
"""

import asyncio
import concurrent.futures
import threading

import pytest

from repro import obs
from repro.serve.batcher import WAVE_FAILED, WaveBatcher, WaveKeyError


class Runner:
    """Synchronous wave runner that records every call it receives."""

    def __init__(self, fn=None, block: threading.Event = None):
        self.calls = []
        self.fn = fn or (lambda task: ("val", task))
        self.block = block

    def __call__(self, tasks, keys):
        if self.block is not None:
            assert self.block.wait(10)
        self.calls.append(list(keys))
        return [self.fn(t) for t in tasks]


def run_with_batcher(coro_fn, runner, window_s=0.001):
    """Drive one async scenario with a fresh batcher + one-thread executor."""

    async def go():
        with concurrent.futures.ThreadPoolExecutor(max_workers=1) as ex:
            batcher = WaveBatcher(runner, ex, window_s=window_s)
            return await coro_fn(batcher)

    return asyncio.run(go())


class TestCoalescing:
    def test_concurrent_overlapping_demands_one_wave(self):
        """N concurrent demand sets with overlap → one wave of unique keys."""
        runner = Runner()

        async def scenario(batcher):
            results = await asyncio.gather(
                batcher.demand_many(["a", "b"], [1, 2]),
                batcher.demand_many(["b", "c"], [2, 3]),
                batcher.demand_many(["a", "c"], [1, 3]),
            )
            return results

        with obs.collect() as col:
            results = run_with_batcher(scenario, runner)
        assert len(runner.calls) == 1
        assert sorted(runner.calls[0]) == ["a", "b", "c"]
        # every requester got its values, shared results included
        assert results[0] == [("val", 1), ("val", 2)]
        assert results[1] == [("val", 2), ("val", 3)]
        assert results[2] == [("val", 1), ("val", 3)]
        assert col.counters["serve.batch.waves"] == 1
        assert col.counters["serve.batch.tasks"] == 3
        assert col.counters["serve.batch.demands"] == 6
        assert col.counters["serve.batch.coalesced"] == 3

    def test_inflight_join_shares_running_work(self):
        """A demand for a key already being computed joins it, no re-run."""
        release = threading.Event()
        runner = Runner(block=release)

        async def scenario(batcher):
            first = asyncio.ensure_future(batcher.demand("k", 1))
            # let the first demand flush and start running (runner blocks)
            await asyncio.sleep(0.05)
            second = asyncio.ensure_future(batcher.demand("k", 1))
            await asyncio.sleep(0.05)
            release.set()
            return await asyncio.gather(first, second)

        with obs.collect() as col:
            v1, v2 = run_with_batcher(scenario, runner, window_s=0.001)
        assert v1 == v2 == ("val", 1)
        assert len(runner.calls) == 1
        assert col.counters["serve.batch.coalesced"] == 1

    def test_sequential_demands_make_separate_waves(self):
        runner = Runner()

        async def scenario(batcher):
            await batcher.demand("a", 1)
            await batcher.demand("b", 2)

        with obs.collect() as col:
            run_with_batcher(scenario, runner)
        assert len(runner.calls) == 2
        assert col.counters["serve.batch.waves"] == 2


class TestFailure:
    def test_runner_error_reaches_every_waiter(self):
        def boom(tasks, keys):
            raise RuntimeError("wave failed")

        async def scenario(batcher):
            with pytest.raises(RuntimeError, match="wave failed"):
                await asyncio.gather(
                    batcher.demand("a", 1),
                    batcher.demand("b", 2),
                )
            # a failed wave must not leave its keys stuck in-flight
            assert batcher._inflight == {}

        run_with_batcher(scenario, boom)

    def test_failed_key_isolated_from_siblings(self):
        """A WAVE_FAILED sentinel fails only its own key's joiners."""

        def runner(tasks, keys):
            return [WAVE_FAILED if t == 2 else ("val", t) for t in tasks]

        async def scenario(batcher):
            results = await asyncio.gather(
                batcher.demand("a", 1),
                batcher.demand("b", 2),
                batcher.demand("c", 3),
                return_exceptions=True,
            )
            assert batcher._inflight == {}
            return results

        with obs.collect() as col:
            a, b, c = run_with_batcher(scenario, runner)
        assert a == ("val", 1)
        assert isinstance(b, WaveKeyError) and b.key == "b"
        assert c == ("val", 3)
        assert col.counters["serve.batch.failed_keys"] == 1

    def test_requester_cancellation_spares_shared_future(self):
        """Shutdown cancelling one joiner's connection (after ``--grace``)
        must not cancel the wave its siblings share."""
        release = threading.Event()
        runner = Runner(block=release)

        async def scenario(batcher):
            slow = asyncio.ensure_future(batcher.demand("k", 1))
            await asyncio.sleep(0.05)  # flush; runner blocks
            joiner = asyncio.ensure_future(batcher.demand("k", 1))
            await asyncio.sleep(0.05)
            joiner.cancel()  # shutdown cutting a connection still open
            release.set()
            return await slow

        value = run_with_batcher(scenario, runner)
        assert value == ("val", 1)


class TestDrain:
    def test_drain_flushes_pending(self):
        runner = Runner()

        async def scenario(batcher):
            # long window: without drain() this demand would sit pending
            fut = asyncio.ensure_future(batcher.demand("a", 1))
            await asyncio.sleep(0)
            await batcher.drain()
            assert fut.done()
            return await fut

        value = run_with_batcher(scenario, runner, window_s=30.0)
        assert value == ("val", 1)
        assert len(runner.calls) == 1

    def test_drain_idle_is_noop(self):
        async def scenario(batcher):
            await batcher.drain()

        run_with_batcher(scenario, Runner())
