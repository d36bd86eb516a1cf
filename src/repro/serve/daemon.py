"""The ``silvervale serve`` daemon: asyncio server + one engine thread.

Threading model (the whole story, because it is the subtle part):

* The **event loop** owns connections, request parsing, the wave batcher
  and the divergence memo. Handlers never run engine work inline.
* One **engine thread** (a ``ThreadPoolExecutor(max_workers=1)``) runs all
  indexing (serial, in-process) and every :class:`ChunkedPool` wave. One
  thread, by design: the pool already parallelises *inside* a wave
  (``--jobs``), the engine's memo/caches and the registry's index cache
  assume single-writer, and serialising waves is exactly what makes
  "N concurrent requests → one wave per unique demand set" true.
  The thread lives as long as the daemon, and nothing times its work
  out: Python cannot interrupt a running thread, so a timeout could only
  abandon work that keeps running. A serial wave always ends; with
  ``--jobs N`` the pool's ``--wave-timeout-s`` terminates its workers.
* Engine work runs under a **copy of the daemon's base context** —
  captured at startup inside the CLI's session collector — so spans,
  counters and session-level diagnostics land in the same collector the
  ledger snapshot is written from, no module-global fallbacks needed.
* Each request handler installs a **context-local diagnostic sink**
  (:func:`repro.diag.capture_local`): responses carry their own request's
  diagnostics and nothing from concurrent requests.

Overload discipline (DESIGN.md §"Overload and failure contract"):

* **admission control** — at most ``max_inflight`` requests hold an
  engine-facing slot; up to ``max_queue`` more wait. Beyond that the
  daemon *sheds*: an immediate ``429`` with ``Retry-After`` and a
  ``serve/overloaded`` diagnostic (``serve.shed.requests``). ``/healthz``,
  ``/v1/stats`` and ``POST /v1/shutdown`` bypass admission so the daemon
  stays observable and stoppable while saturated.
* **slow-client protection** — header/body reads and response writes are
  bounded by ``io_timeout_s``; a started-then-stalled request gets a
  ``408``, an idle keep-alive connection is closed silently.

Graceful shutdown (``POST /v1/shutdown`` or SIGINT/SIGTERM): stop
accepting, let in-flight responses finish (bounded grace), drain the
batcher, close idle keep-alive connections, remove the port file, join the
engine thread, return from :meth:`run` — the CLI then flushes the profile
and writes the run ledger snapshot (including the serve-lifetime summary
in :attr:`summary`) like any batch command.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import contextlib
import contextvars
import os
import signal
import threading
import time
from typing import Any, Optional, Sequence

from repro import diag, obs
from repro.serve.app import ServeApp
from repro.serve.batcher import WaveBatcher, WaveKeyError
from repro.serve.http import HttpError, read_request, response_bytes
from repro.serve.state import ServeState
from repro.util.errors import ReproError

#: Paths admission control never sheds: health, stats and shutdown must
#: keep working precisely when the daemon is saturated.
_ADMISSION_EXEMPT = {"/healthz", "/v1/stats", "/v1/shutdown"}


class ServeDaemon:
    """One serve session: state, batcher, app and server lifecycle.

    Construct, then :meth:`run` (blocking; typically from the CLI) or run
    it on a thread and wait on :attr:`ready` — :attr:`port` holds the bound
    port (for ``--port 0``) once ready is set. :meth:`stop` is thread-safe.
    ``max_inflight``/``max_queue``/``io_timeout_s`` of ``0`` disable the
    respective limit.
    """

    def __init__(
        self,
        engine,
        host: str = "127.0.0.1",
        port: int = 8787,
        artifacts=None,
        strict: bool = False,
        warm: Sequence[str] = (),
        window_s: float = 0.005,
        port_file: Optional[str] = None,
        grace_s: float = 2.0,
        quiet: bool = False,
        max_inflight: int = 64,
        max_queue: int = 128,
        io_timeout_s: float = 30.0,
    ):
        self.host = host
        self.port = port
        self.warm_apps = list(warm)
        self.window_s = window_s
        self.port_file = port_file
        self.grace_s = grace_s
        self.quiet = quiet
        self.max_inflight = int(max_inflight)
        self.max_queue = int(max_queue)
        self.io_timeout_s = float(io_timeout_s)
        self.state = ServeState(engine, artifacts=artifacts, strict=strict)
        self.ready = threading.Event()
        self.app: Optional[ServeApp] = None
        #: serve-lifetime summary, populated during drain; the CLI merges it
        #: into the run-ledger workload so shutdown doesn't drop the metrics
        self.summary: dict[str, Any] = {}
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._shutdown: Optional[asyncio.Event] = None
        self._sem: Optional[asyncio.Semaphore] = None
        self._conn_tasks: set["asyncio.Task[Any]"] = set()
        self._request_seq = 0
        self._inflight = 0
        self._queued = 0
        self._shed = 0

    # -- lifecycle -----------------------------------------------------------

    def run(self) -> None:
        """Serve until shutdown is requested (blocking)."""
        try:
            asyncio.run(self._main())
        finally:
            self.ready.set()  # never leave a waiter hanging on a failed boot

    def stop(self) -> None:
        """Request graceful shutdown; safe from any thread."""
        loop, shutdown = self._loop, self._shutdown
        if loop is not None and shutdown is not None and not loop.is_closed():
            loop.call_soon_threadsafe(shutdown.set)

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._shutdown = asyncio.Event()
        self._install_signal_handlers()
        started = time.monotonic()
        if self.max_inflight:
            self._sem = asyncio.Semaphore(self.max_inflight)
        # the context every engine-thread job runs under: whatever collector
        # and session-level sink the CLI installed around run()
        base_ctx = contextvars.copy_context()
        engine_thread = concurrent.futures.ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve-engine"
        )

        async def run_engine(fn):
            return await self._loop.run_in_executor(engine_thread, base_ctx.copy().run, fn)

        app = ServeApp(
            self.state,
            batcher=None,  # wired below; the runner closes over the app
            run_engine=run_engine,
            shutdown_cb=self._shutdown.set,
            admission=self.admission_info,
        )

        def ctx_runner(tasks: list, keys: list) -> list:
            return base_ctx.copy().run(app.wave_runner, tasks, keys)

        app.batcher = WaveBatcher(ctx_runner, engine_thread, window_s=self.window_s)
        self.app = app

        server = await asyncio.start_server(self._on_connection, self.host, self.port)
        self.port = server.sockets[0].getsockname()[1]
        try:
            if self.warm_apps:
                with obs.span("serve.warm", apps=",".join(self.warm_apps)):
                    warmed = await run_engine(lambda: self.state.warm(self.warm_apps))
                self._say(
                    f"warm: {warmed['codebases']} codebases across "
                    f"{warmed['apps']} apps, {warmed['ted_entries']} TED entries"
                )
            if self.port_file:
                with open(self.port_file, "w", encoding="utf-8") as f:
                    f.write(f"{self.port}\n")
            self._say(f"serving on http://{self.host}:{self.port}")
            self.ready.set()
            await self._shutdown.wait()
            self._say("shutdown requested; draining")
            self._remove_port_file()  # supervisors must not race a dead port
            server.close()
            await server.wait_closed()
            await self._drain_connections()
            await app.batcher.drain()
            uptime = time.monotonic() - started
            obs.gauge("serve.uptime_s", round(uptime, 3))
            self.summary = {
                "uptime_s": round(uptime, 3),
                "requests": self._request_seq,
                "shed": self._shed,
                "failed_keys": int(obs.get("serve.batch.failed_keys")),
            }
        finally:
            self._remove_port_file()
            server.close()
            engine_thread.shutdown(wait=True)
        self._say("bye")

    def _install_signal_handlers(self) -> None:
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                self._loop.add_signal_handler(sig, self._shutdown.set)
            except (NotImplementedError, RuntimeError, ValueError):
                # non-main thread (tests) or platforms without loop signals;
                # stop() / POST /v1/shutdown remain available
                break

    def _remove_port_file(self) -> None:
        if self.port_file:
            with contextlib.suppress(OSError):
                os.unlink(self.port_file)

    async def _drain_connections(self) -> None:
        """Give in-flight responses a grace window, then cut idle readers."""
        deadline = self._loop.time() + self.grace_s
        while self._conn_tasks and self._loop.time() < deadline:
            await asyncio.sleep(0.01)
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)

    def _say(self, message: str) -> None:
        if not self.quiet:
            print(f"serve: {message}", flush=True)

    # -- admission (event-loop thread) ---------------------------------------

    def admission_info(self) -> dict[str, Any]:
        """Readiness-vs-overload snapshot for ``/healthz`` and ``/v1/stats``."""
        if self._sem is None:
            state = "ready"
        elif self._sem.locked() and self._queued >= self.max_queue:
            state = "overloaded"
        elif self._sem.locked():
            state = "busy"
        else:
            state = "ready"
        return {
            "state": state,
            "inflight": self._inflight,
            "queued": self._queued,
            "shed": self._shed,
            "max_inflight": self.max_inflight,
            "max_queue": self.max_queue,
        }

    async def _admit(self) -> None:
        """Take one in-flight slot or shed; raises a 429 :class:`HttpError`."""
        if self._sem is None:
            self._inflight += 1
            return
        if self._sem.locked():
            if self._queued >= self.max_queue:
                self._shed += 1
                obs.add("serve.shed.requests")
                raise HttpError(
                    429,
                    "server over capacity (in-flight budget and queue full)",
                    headers={"Retry-After": "1"},
                )
            self._queued += 1
            try:
                await self._sem.acquire()
            finally:
                self._queued -= 1
        else:
            await self._sem.acquire()
        self._inflight += 1

    def _release(self) -> None:
        self._inflight -= 1
        if self._sem is not None:
            self._sem.release()

    # -- connection handling -------------------------------------------------

    async def _on_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        obs.add("serve.connections")
        try:
            await self._serve_connection(reader, writer)
        except asyncio.CancelledError:
            pass  # shutdown cut an idle keep-alive reader
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._conn_tasks.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
                pass

    async def _write(self, writer, data: bytes) -> bool:
        """Write one response; a stalled client forfeits the connection."""
        writer.write(data)
        try:
            if self.io_timeout_s:
                await asyncio.wait_for(writer.drain(), self.io_timeout_s)
            else:
                await writer.drain()
        except asyncio.TimeoutError:
            obs.add("serve.io.write_timeouts")
            return False
        return True

    async def _serve_connection(self, reader, writer) -> None:
        """One keep-alive connection: read → dispatch → respond, repeat."""
        while not self._shutdown.is_set():
            try:
                req = await read_request(
                    reader,
                    header_timeout_s=self.io_timeout_s or None,
                    body_timeout_s=self.io_timeout_s or None,
                )
            except HttpError as e:
                if e.status == 408:
                    obs.add("serve.io.timeouts")
                await self._write(
                    writer,
                    response_bytes(
                        e.status,
                        {"error": e.message},
                        keep_alive=False,
                        extra_headers=e.headers,
                    ),
                )
                return
            if req is None:
                return  # client closed (or idled out) between requests
            self._request_seq += 1
            req.request_id = self._request_seq
            status, payload, headers = await self._dispatch(req)
            keep = req.keep_alive and not self._shutdown.is_set()
            headers["X-Request-Id"] = str(req.request_id)
            ok = await self._write(
                writer,
                response_bytes(status, payload, keep_alive=keep, extra_headers=headers),
            )
            if not keep or not ok:
                return

    async def _dispatch(self, req) -> tuple[int, dict, dict]:
        """Run one request under its own diagnostic sink; map errors.

        Returns ``(status, payload, extra_headers)``. Admission applies to
        everything except the exempt paths (health/stats/shutdown), which
        must answer under overload.
        """
        obs.add("serve.requests")
        headers: dict[str, str] = {}
        exempt = req.path in _ADMISSION_EXEMPT
        admitted = False
        with diag.capture_local() as sink:
            with obs.span("serve.request", method=req.method, path=req.path):
                try:
                    if not exempt:
                        await self._admit()
                        admitted = True
                    result = await self.app.handle(req)
                    if isinstance(result, tuple):
                        status, payload = result
                    else:
                        status, payload = 200, result
                except HttpError as e:
                    code = "serve/overloaded" if e.status == 429 else "serve/bad-request"
                    diag.warning(code, e.message)
                    status, payload = e.status, {"error": e.message}
                    headers.update(e.headers)
                    obs.add("serve.errors")
                except WaveKeyError as e:
                    diag.error("serve/wave-failed", str(e))
                    status, payload = 500, {"error": str(e)}
                    obs.add("serve.errors")
                except ReproError as e:
                    diag.warning("serve/bad-request", str(e))
                    status, payload = 400, {"error": str(e)}
                    obs.add("serve.errors")
                except asyncio.CancelledError:
                    raise
                except Exception as e:
                    diag.error("serve/internal-error", f"{type(e).__name__}: {e}")
                    status, payload = 500, {
                        "error": f"internal error: {type(e).__name__}: {e}"
                    }
                    obs.add("serve.errors")
                finally:
                    if admitted:
                        self._release()
        payload = dict(payload)
        payload["request_id"] = req.request_id
        payload["diagnostics"] = [d.format() for d in sink.diagnostics]
        return status, payload, headers
