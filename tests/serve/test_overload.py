"""Overload and failure semantics: admission shedding, deadlines, the
bounded divergence memo, and the explicit 405/501 surface.

The daemon-level tests boot tiny cold daemons with deliberately small
budgets; the memo LRU is unit-tested directly on :class:`ServeState`.
"""

import http.client
import json
import socket
import threading
import time

import pytest

from repro import obs
from repro.distance.engine import DistanceEngine
from repro.serve.daemon import ServeDaemon
from repro.serve.state import ServeState

from tests.serve.test_endpoints import APP, BASELINE, Client, boot


class TestHotTierLRU:
    def test_memo_evicts_least_recently_used(self):
        state = ServeState(engine=None, max_entries=2)
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

    def test_unbounded_by_default(self):
        state = ServeState(engine=None)
        for i in range(100):
            state.remember(str(i), i)
        assert state.stats()["memo_entries"] == 100
        assert state.stats()["evicted"] == {"memo": 0}


class TestAdmissionControl:
    def test_shed_beyond_budget_and_queue(self):
        """max_inflight=1, max_queue=0: a second concurrent request sheds
        with 429 + Retry-After while the first is still in flight."""
        daemon = ServeDaemon(
            DistanceEngine(),
            port=0,
            warm=[APP],
            window_s=0.005,
            quiet=True,
            max_inflight=1,
            max_queue=0,
            request_timeout_s=120.0,
        )
        thread = boot(daemon)
        client = Client(daemon.port)
        try:
            # occupy the only slot with a cold compare (real engine work)
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

            t.join(timeout=120)
            assert hold_result["r"][0] == 200
            # slot released: the daemon is ready again
            status, health = client.get("/healthz")
            assert status == 200 and health["state"] == "ready"
        finally:
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


class TestDeadlines:
    def test_client_timeout_header_gets_504_with_diag(self):
        daemon = ServeDaemon(
            DistanceEngine(),
            port=0,
            warm=[APP],
            window_s=0.005,
            quiet=True,
            request_timeout_s=120.0,
        )
        thread = boot(daemon)
        try:
            conn = http.client.HTTPConnection("127.0.0.1", daemon.port, timeout=60)
            # a cold Tir compare takes well over 1ms of engine work
            conn.request(
                "GET",
                f"/v1/compare?app={APP}&model=omp&baseline={BASELINE}&metric=Tir",
                headers={"X-Timeout-Ms": "1"},
            )
            resp = conn.getresponse()
            payload = json.loads(resp.read())
            assert resp.status == 504
            assert any("serve/deadline" in d for d in payload["diagnostics"])
            conn.close()

            # the same query without the header succeeds: the cancelled
            # request did not poison the shared wave or the daemon
            client = Client(daemon.port)
            status, payload = client.get(
                f"/v1/compare?app={APP}&model=omp&baseline={BASELINE}&metric=Tir"
            )
            assert status == 200
            assert 0.0 <= payload["divergence"] <= 1.0
        finally:
            daemon.stop()
            thread.join(timeout=30)

    def test_malformed_timeout_header_ignored(self):
        daemon = ServeDaemon(DistanceEngine(), port=0, quiet=True)
        thread = boot(daemon)
        try:
            conn = http.client.HTTPConnection("127.0.0.1", daemon.port, timeout=30)
            conn.request("GET", "/v1/apps", headers={"X-Timeout-Ms": "soon"})
            resp = conn.getresponse()
            assert resp.status == 200
            conn.close()
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
