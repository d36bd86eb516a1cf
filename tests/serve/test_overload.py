"""Overload and failure semantics: admission shedding, the bounded
divergence memo, slow clients, and the explicit 405/501 surface.

The daemon-level tests boot tiny cold daemons with deliberately small
budgets; the memo LRU is unit-tested directly on :class:`ServeState`.
"""

import socket
import threading
import time

import pytest

from repro import obs
from repro.distance.engine import DistanceEngine
from repro.serve import state as serve_state
from repro.serve.daemon import ServeDaemon
from repro.serve.state import ServeState

from tests.serve.test_endpoints import APP, BASELINE, Client, boot


class TestHotTierLRU:
    def test_memo_evicts_least_recently_used(self, monkeypatch):
        monkeypatch.setattr(serve_state, "MEMO_MAX_ENTRIES", 2)
        state = ServeState(engine=None)
        with obs.collect() as col:
            state.remember("a", 1)
            state.remember("b", 2)
            assert state.lookup("a") == 1  # refresh a: b is now LRU
            state.remember("c", 3)
        assert state.lookup("b") is None
        assert state.lookup("a") == 1 and state.lookup("c") == 3
        assert col.counters["serve.hot.evicted.memo"] == 1
        stats = state.stats()
        assert stats["evicted"]["memo"] == 1
        assert stats["max_entries"] == 2


class TestAdmissionControl:
    def test_shed_beyond_budget_and_queue(self):
        """max_inflight=1, max_queue=0: a second concurrent request sheds
        with 429 + Retry-After while the first is still in flight.

        The holder's engine wave blocks until the test releases it, so the
        slot stays taken however fast (or memo-warm) its compare is."""
        engine = DistanceEngine()
        release = threading.Event()
        map_tasks = engine.map_tasks

        def held_map_tasks(*args, **kwargs):
            release.wait(120)
            return map_tasks(*args, **kwargs)

        engine.map_tasks = held_map_tasks
        daemon = ServeDaemon(
            engine,
            port=0,
            warm=[APP],
            window_s=0.005,
            quiet=True,
            max_inflight=1,
            max_queue=0,
        )
        thread = boot(daemon)
        client = Client(daemon.port)
        try:
            # occupy the only slot with a compare whose wave waits on release
            hold_result = {}

            def hold():
                hold_result["r"] = client.get(
                    f"/v1/compare?app={APP}&model=omp&baseline={BASELINE}&metric=Tir"
                )

            t = threading.Thread(target=hold)
            t.start()
            # wait until the slot is actually taken
            for _ in range(200):
                status, health, headers = client.request("GET", "/healthz")
                if health.get("state") in ("busy", "overloaded"):
                    break
                time.sleep(0.01)
            else:
                pytest.fail("holder request never took the admission slot")

            status, payload, headers = client.request(
                "GET", f"/v1/compare?app={APP}&model=array&baseline={BASELINE}&metric=Tir"
            )
            assert status == 429
            assert headers.get("Retry-After") == "1"
            assert any("serve/overloaded" in d for d in payload["diagnostics"])

            # health reports overload as 503 while saturated, yet answers
            status, health, _ = client.request("GET", "/healthz")
            assert status == 503
            assert health["status"] == "overloaded"
            assert health["admission"]["shed"] >= 1

            release.set()
            t.join(timeout=120)
            assert hold_result["r"][0] == 200
            # slot released: the daemon is ready again
            status, health = client.get("/healthz")
            assert status == 200 and health["state"] == "ready"
        finally:
            release.set()
            daemon.stop()
            thread.join(timeout=30)

    def test_exempt_paths_never_shed(self):
        daemon = ServeDaemon(
            DistanceEngine(), port=0, quiet=True, max_inflight=1, max_queue=0
        )
        thread = boot(daemon)
        client = Client(daemon.port)
        try:
            for _ in range(5):  # nothing in flight: always 200
                status, payload = client.get("/v1/stats")
                assert status == 200
                assert payload["admission"]["max_inflight"] == 1
        finally:
            daemon.stop()
            thread.join(timeout=30)


class TestExplicitStatusCodes:
    def test_405_carries_allow_header(self):
        daemon = ServeDaemon(DistanceEngine(), port=0, quiet=True)
        thread = boot(daemon)
        client = Client(daemon.port)
        try:
            status, payload, headers = client.request("POST", "/v1/compare")
            assert status == 405
            assert headers.get("Allow") == "GET"
            status, payload, headers = client.request("DELETE", "/v1/index")
            assert status == 405
            assert headers.get("Allow") == "GET, POST"
        finally:
            daemon.stop()
            thread.join(timeout=30)

    def test_unknown_method_gets_501(self):
        daemon = ServeDaemon(DistanceEngine(), port=0, quiet=True)
        thread = boot(daemon)
        try:
            with socket.create_connection(("127.0.0.1", daemon.port), timeout=30) as s:
                s.sendall(b"BREW /v1/apps HTTP/1.1\r\n\r\n")
                data = s.recv(4096)
            assert data.startswith(b"HTTP/1.1 501 ")
        finally:
            daemon.stop()
            thread.join(timeout=30)

    def test_chunked_transfer_gets_501(self):
        daemon = ServeDaemon(DistanceEngine(), port=0, quiet=True)
        thread = boot(daemon)
        try:
            with socket.create_connection(("127.0.0.1", daemon.port), timeout=30) as s:
                s.sendall(
                    b"POST /v1/index HTTP/1.1\r\n"
                    b"Transfer-Encoding: chunked\r\n\r\n"
                    b"0\r\n\r\n"
                )
                data = s.recv(4096)
            assert data.startswith(b"HTTP/1.1 501 ")
        finally:
            daemon.stop()
            thread.join(timeout=30)


class TestSlowClients:
    def test_stalled_header_gets_408(self):
        daemon = ServeDaemon(DistanceEngine(), port=0, quiet=True, io_timeout_s=0.3)
        thread = boot(daemon)
        try:
            with obs.collect():
                with socket.create_connection(
                    ("127.0.0.1", daemon.port), timeout=30
                ) as s:
                    s.sendall(b"GET /healthz HT")  # slowloris: never finishes
                    s.settimeout(10)
                    data = s.recv(4096)
                assert data.startswith(b"HTTP/1.1 408 ")
        finally:
            daemon.stop()
            thread.join(timeout=30)

    def test_idle_keep_alive_closed_silently(self):
        daemon = ServeDaemon(DistanceEngine(), port=0, quiet=True, io_timeout_s=0.3)
        thread = boot(daemon)
        try:
            with socket.create_connection(("127.0.0.1", daemon.port), timeout=30) as s:
                s.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
                s.settimeout(10)
                first = s.recv(65536)
                assert first.startswith(b"HTTP/1.1 200 ")
                # now idle past the io timeout: silent close, no 408 bytes
                # that a reusing client would misread as its next response
                tail = b""
                while True:
                    chunk = s.recv(4096)
                    if not chunk:
                        break
                    tail += chunk
                assert b"408" not in tail
        finally:
            daemon.stop()
            thread.join(timeout=30)
