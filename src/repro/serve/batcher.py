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

Demands are pure functions of their key (same contract as the engine's
checkpoint values), which is what makes sharing one result across requests
— and with the batch CLI — sound.

Failure isolation (pinned in DESIGN.md §"Overload and failure contract"):
a wave is a *shared* vehicle, so one request's poisonous demand must not
fail its neighbours. Two layers, narrowest first:

* **per-key routing** — the wave runner substitutes the :data:`WAVE_FAILED`
  sentinel for any task whose chunk exhausted retries (the pool's
  ``fail_value`` path); only the joiners of that key get a
  :class:`WaveKeyError` (``serve.batch.failed_keys``), siblings get values.
  An exception escaping the engine call itself (a setup error, a strict
  abort) reaches every joiner of the wave;
* **wave watchdog** — ``wave_timeout_s`` bounds the wave's engine call;
  on expiry the joiners get :class:`WavePoisonedError`
  (``serve.batch.poisoned``) and ``on_poisoned`` fires so the daemon can
  replace the wedged engine thread. The abandoned call's future is
  shielded, so a late result is discarded, not delivered.

Deadline interaction: a request-side ``asyncio.wait_for`` cancels the
*handler*, but the wave futures are shared across requests, so
``demand_many`` awaits shielded views and never propagates its own
cancellation into the batch.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Optional, Sequence

from repro import obs

#: Sentinel a wave runner returns in place of a value for a task whose
#: chunk failed (retries exhausted / worker killed past recovery). Routed
#: to a per-key :class:`WaveKeyError` instead of failing the whole wave.
WAVE_FAILED = object()


class WaveKeyError(Exception):
    """One coalesced demand failed; only its joiners see this."""

    def __init__(self, key: str, reason: str = "task failed in engine wave"):
        super().__init__(f"{reason} (key {key})")
        self.key = key
        self.reason = reason


class WavePoisonedError(WaveKeyError):
    """A wave's engine call wedged past the wave watchdog."""

    def __init__(self, key: str, timeout_s: float):
        super().__init__(key, f"engine wave exceeded {timeout_s:g}s watchdog")
        self.timeout_s = timeout_s


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
    that failed individually. ``executor`` may also be a zero-arg callable
    returning the current executor, so the daemon can swap in a fresh
    engine thread after a poisoned wave. ``window_s = 0`` still coalesces
    demands that arrive in the same event-loop iteration.
    """

    def __init__(
        self,
        runner: Callable[[list, list], list],
        executor,
        window_s: float = 0.005,
        wave_timeout_s: Optional[float] = None,
        on_poisoned: Optional[Callable[[], None]] = None,
    ):
        self.runner = runner
        self.executor = executor
        self.window_s = window_s
        self.wave_timeout_s = wave_timeout_s
        self.on_poisoned = on_poisoned
        self._pending: dict[str, _Pending] = {}
        self._inflight: dict[str, "asyncio.Future[Any]"] = {}
        self._flush_handle: Optional[asyncio.TimerHandle] = None

    def _executor_now(self):
        return self.executor() if callable(self.executor) else self.executor

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
        # requests, so this request's deadline cancellation must not cancel
        # the batch (and gather — not sequential awaits — so one failed
        # wave can't leave sibling futures unretrieved)
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
        try:
            await self._run_call(batch)
        finally:
            for key in batch:
                self._inflight.pop(key, None)

    async def _run_call(self, batch: dict[str, _Pending]) -> None:
        loop = asyncio.get_running_loop()
        tasks = [p.task for p in batch.values()]
        call = loop.run_in_executor(self._executor_now(), self.runner, tasks, list(batch))
        try:
            if self.wave_timeout_s:
                # shield: on timeout the engine thread is abandoned (and
                # restarted via on_poisoned), so a late result must be
                # discarded rather than cancelled mid-set
                values = await asyncio.wait_for(
                    asyncio.shield(call), self.wave_timeout_s
                )
            else:
                values = await call
        except asyncio.TimeoutError:
            obs.add("serve.batch.poisoned")
            call.add_done_callback(_consume)
            for key, p in batch.items():
                if not p.future.done():
                    p.future.set_exception(
                        WavePoisonedError(key, self.wave_timeout_s)
                    )
            if self.on_poisoned is not None:
                self.on_poisoned()
            return
        except Exception as e:
            # the engine call failing outright (setup error, strict abort)
            # fails every joiner of the wave
            for p in batch.values():
                if not p.future.done():
                    p.future.set_exception(e)
            return
        for (key, p), value in zip(batch.items(), values):
            if p.future.done():
                continue
            if value is WAVE_FAILED:
                obs.add("serve.batch.failed_keys")
                p.future.set_exception(WaveKeyError(key))
            else:
                p.future.set_result(value)
