"""Request batching: coalesce concurrent TED demands into engine waves.

The daemon's endpoints all reduce to lists of *demands* — pure divergence
evaluations named by their engine task key (``pair:…``). When many
requests arrive together (the load-test case, and the production story),
evaluating each request's demands separately would schedule many tiny
:class:`ChunkedPool` runs; this batcher instead:

* **collects** demands for one batching window (``window_s``, default
  5 ms) after the first demand arrives,
* **dedupes** them by task key — N requests racing over overlapping pair
  sets contribute each unique pair once (``serve.batch.coalesced`` counts
  the folded duplicates),
* **joins in-flight work** — a demand whose key is already being computed
  awaits the existing future instead of resubmitting,
* then runs the unique tasks as a *single* engine wave per flush
  (``engine.waves`` is the pool-side counter the coalescing tests gate on)
  on the daemon's one engine thread, and fans results back out to every
  waiting request.

Demands are pure functions of their key (the key fingerprints every
input the divergence reads), which is what makes sharing one result across
requests — and with the batch CLI — sound.

Failure isolation (pinned in DESIGN.md §"Overload and failure contract"):
a wave is a *shared* vehicle, so one request's poisonous demand must not
fail its neighbours. The wave runner substitutes the :data:`WAVE_FAILED`
sentinel for any task whose chunk exhausted retries or outlived the
pool's wave budget (the pool's ``fail_value`` path); only the joiners of
that key get a :class:`WaveKeyError` (``serve.batch.failed_keys``),
siblings get values. An exception escaping the engine call itself (a
setup error, a strict abort) reaches every joiner of the wave.

Nothing here times a wave out: the daemon has one engine thread and
Python cannot interrupt it, so a timeout could only abandon work that
keeps running. A serial wave always ends; with ``--jobs N`` the pool's
``--wave-timeout-s`` terminates its workers.

Cancellation: shutdown cancels connections still open after ``--grace``,
but the wave futures are shared across requests, so ``demand_many``
awaits shielded views and never propagates its own cancellation into the
batch.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
from typing import Any, Callable, Optional, Sequence

from repro import obs

#: Sentinel a wave runner returns in place of a value for a task whose
#: chunk failed (retries exhausted / worker killed past recovery). Routed
#: to a per-key :class:`WaveKeyError` instead of failing the whole wave.
WAVE_FAILED = object()


class WaveKeyError(Exception):
    """One coalesced demand failed; only its joiners see this."""

    def __init__(self, key: str):
        super().__init__(f"task failed in engine wave (key {key})")
        self.key = key


class _Pending:
    """One unique demand and everyone waiting on it."""

    __slots__ = ("task", "future")

    def __init__(self, task: Any, future: "asyncio.Future[Any]"):
        self.task = task
        self.future = future


def _consume(future: "asyncio.Future[Any]") -> None:
    """Done-callback retrieving a future's exception so an errored wave
    with no surviving awaiter doesn't warn at shutdown."""
    if future.cancelled():
        return
    future.exception()


class WaveBatcher:
    """Coalesces demands into single engine waves (see module docstring).

    ``runner(tasks, keys)`` evaluates one wave synchronously and is
    invoked on ``executor`` (the daemon's engine thread); it must return one
    value per task, in order, substituting :data:`WAVE_FAILED` for tasks
    that failed individually. ``window_s = 0`` still coalesces demands that
    arrive in the same event-loop iteration.
    """

    def __init__(
        self,
        runner: Callable[[list, list], list],
        executor: concurrent.futures.Executor,
        window_s: float = 0.005,
    ):
        self.runner = runner
        self.executor = executor
        self.window_s = window_s
        self._pending: dict[str, _Pending] = {}
        self._inflight: dict[str, "asyncio.Future[Any]"] = {}
        self._flush_handle: Optional[asyncio.TimerHandle] = None

    # -- demand side (event-loop thread) ------------------------------------

    async def demand(self, key: str, task: Any) -> Any:
        """One value for one demand, shared with everyone else asking."""
        return (await self.demand_many([key], [task]))[0]

    async def demand_many(self, keys: Sequence[str], tasks: Sequence[Any]) -> list[Any]:
        """Values for a demand list, in order; registers misses for the next
        wave and awaits everything at once."""
        loop = asyncio.get_running_loop()
        futures: list[asyncio.Future[Any]] = []
        for key, task in zip(keys, tasks):
            obs.add("serve.batch.demands")
            existing = self._pending.get(key)
            if existing is not None:
                obs.add("serve.batch.coalesced")
                futures.append(existing.future)
                continue
            running = self._inflight.get(key)
            if running is not None:
                obs.add("serve.batch.coalesced")
                futures.append(running)
                continue
            fut: asyncio.Future[Any] = loop.create_future()
            fut.add_done_callback(_consume)
            self._pending[key] = _Pending(task, fut)
            futures.append(fut)
            if self._flush_handle is None:
                self._flush_handle = loop.call_later(self.window_s, self._start_flush)
        # gather over *shielded* views: the futures are shared across
        # requests, so shutdown cancelling this request's connection must
        # not cancel the batch (and gather — not sequential awaits — so one
        # failed wave can't leave sibling futures unretrieved)
        return list(await asyncio.gather(*(asyncio.shield(f) for f in futures)))

    async def drain(self) -> None:
        """Flush and await any demands still pending (shutdown path)."""
        while self._pending or self._inflight:
            if self._flush_handle is not None:
                self._flush_handle.cancel()
                self._start_flush()
            waiting = [p.future for p in self._pending.values()]
            waiting += list(self._inflight.values())
            if waiting:
                await asyncio.gather(*waiting, return_exceptions=True)
            # let the wave task reach its cleanup before re-checking
            await asyncio.sleep(0)

    # -- wave side -----------------------------------------------------------

    def _start_flush(self) -> None:
        self._flush_handle = None
        batch = self._pending
        self._pending = {}
        if not batch:
            return
        for key, p in batch.items():
            self._inflight[key] = p.future
        obs.add("serve.batch.waves")
        obs.add("serve.batch.tasks", len(batch))
        asyncio.get_running_loop().create_task(self._run_wave(batch))

    async def _run_wave(self, batch: dict[str, _Pending]) -> None:
        """Evaluate one flushed batch in a single engine call."""
        loop = asyncio.get_running_loop()
        tasks = [p.task for p in batch.values()]
        try:
            values = await loop.run_in_executor(self.executor, self.runner, tasks, list(batch))
        except Exception as e:
            # the engine call failing outright (setup error, strict abort)
            # fails every joiner of the wave
            for p in batch.values():
                if not p.future.done():
                    p.future.set_exception(e)
            return
        finally:
            for key in batch:
                self._inflight.pop(key, None)
        for (key, p), value in zip(batch.items(), values):
            if p.future.done():
                continue
            if value is WAVE_FAILED:
                obs.add("serve.batch.failed_keys")
                p.future.set_exception(WaveKeyError(key))
            else:
                p.future.set_result(value)
