"""CI chaos gate for the ``silvervale serve`` daemon.

Boots the daemon in-process with small overload budgets, then drives it
through every fault class the overload-and-failure contract names, in one
session (the point: faults must not leak into each other):

1. **malformed/oversized framing** — garbage request lines, unknown
   methods, chunked transfer coding, oversized headers/bodies, broken
   JSON, plus seeded random garbage: each must map to its specified 4xx/5xx
   and never kill the daemon.
2. **slow and half-closed clients** — a slowloris header and a stalled
   body must 408 (``serve.io.timeouts``); a half-closed client that sent a
   full request still gets its response.
3. **worker kill mid-wave** — ``REPRO_CHAOS=kill@i`` SIGKILLs a pool
   worker inside a coalesced wave; the pool must see the death on the
   worker's pipe (``engine.worker_deaths``) and retry its chunk, and every
   joiner still gets a 200 with the fault-free value.
4. **poisoned key isolation** — ``REPRO_CHAOS=exc!@i`` makes one task fail
   every attempt; exactly that key's joiner gets a 500 with a
   ``serve/wave-failed`` diagnostic, siblings get 200s
   (``serve.batch.failed_keys``).
5. **flood past the admission budget** — concurrent heavy queries clog the
   in-flight budget and queue; probe requests must shed with 429 +
   ``Retry-After`` (``serve.shed.*`` > 0), and after the flood the warm
   p99 must stay under ``--p99-gate-ms``.

Cross-cutting gates: every divergence the daemon served under chaos is
bit-identical to the batch path computed in-process afterwards, and the
daemon answers a final ``/healthz`` and shuts down cleanly — zero crashes.

Writes the ``SERVECHAOS_pr.json`` harness artifact and (with
``--ledger-dir``) a ``harness:serve-chaos`` run-ledger snapshot.

Usage: PYTHONPATH=src python benchmarks/chaos_serve.py [--seed N] [--out SERVECHAOS_pr.json]
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import random
import socket
import sys
import threading
import time

from repro import obs
from repro.corpus.registry import app_models, clear_index_cache, index_app
from repro.distance.engine import DistanceEngine
from repro.distance.ted import clear_ted_cache
from repro.obs import ledger as runledger
from repro.serve.daemon import ServeDaemon
from repro.workflow.comparer import divergence_row, parse_metric

APP = "babelstream-fortran"
BASELINE = "sequential"

#: Engine settings: chunk_size=1 so an injected fault owns exactly one task
#: key. A SIGKILLed worker reads as end of file on its pipe, so its chunk is
#: retried at once and no deadline bounds the kill phase.
RETRIES = 2

#: Deliberately small overload budgets so the flood phase saturates with a
#: handful of clients.
MAX_INFLIGHT = 4
MAX_QUEUE = 8
IO_TIMEOUT_S = 2.0


def get(port: int, path: str, timeout: float = 120.0):
    """One request on its own connection: (status, payload, resp headers)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read()), dict(resp.getheaders())
    finally:
        conn.close()


def raw_exchange(port: int, data: bytes, timeout: float = 30.0) -> bytes:
    """Send raw bytes, return whatever the daemon answers (b"" on close)."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as s:
        s.sendall(data)
        s.settimeout(timeout)
        try:
            return s.recv(65536)
        except (socket.timeout, ConnectionResetError):
            return b""


def counters(port: int) -> dict:
    status, payload, _ = get(port, "/v1/stats")
    assert status == 200
    return payload["metrics"].get("counters", {})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=1, help="garbage/injection seed")
    parser.add_argument("--out", default="SERVECHAOS_pr.json", help="result JSON path")
    parser.add_argument(
        "--ledger-dir",
        metavar="DIR",
        help="also record a harness:serve-chaos run-ledger snapshot under DIR",
    )
    parser.add_argument(
        "--p99-gate-ms", type=float, default=1000.0, help="post-flood warm p99 gate (ms)"
    )
    args = parser.parse_args(argv)
    t_start = time.perf_counter()
    rng = random.Random(args.seed)

    clear_index_cache()
    clear_ted_cache()
    models = [m for m in app_models(APP) if m != BASELINE][:3]
    failures: list[str] = []
    phase_log: dict[str, dict] = {}

    with obs.collect() as col:
        daemon = ServeDaemon(
            DistanceEngine(jobs=2, chunk_size=1, retries=RETRIES),
            port=0,
            warm=[APP],
            window_s=0.05,
            quiet=True,
            max_inflight=MAX_INFLIGHT,
            max_queue=MAX_QUEUE,
            io_timeout_s=IO_TIMEOUT_S,
        )
        thread = threading.Thread(target=daemon.run, daemon=True)
        thread.start()
        if not daemon.ready.wait(300):
            print("FAIL: daemon did not become ready", file=sys.stderr)
            return 1
        port = daemon.port
        print(f"daemon ready on port {port} (warm corpus: {APP}, seed {args.seed})")

        # -- phase 1: malformed and oversized framing -------------------------
        cases = {
            "garbage-line": (b"NONSENSE\r\n\r\n", b"HTTP/1.1 400 "),
            "unknown-method": (b"BREW /v1/apps HTTP/1.1\r\n\r\n", b"HTTP/1.1 501 "),
            "chunked-te": (
                b"POST /v1/index HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
                b"HTTP/1.1 501 ",
            ),
            "oversized-body": (
                b"POST /v1/index HTTP/1.1\r\nContent-Length: 2097152\r\n\r\n",
                b"HTTP/1.1 413 ",
            ),
            "oversized-header": (
                b"GET / HTTP/1.1\r\nX-Pad: " + b"a" * (20 * 1024) + b"\r\n\r\n",
                b"HTTP/1.1 413 ",
            ),
        }
        framing = {}
        for name, (payload, want) in cases.items():
            answer = raw_exchange(port, payload)
            framing[name] = answer.split(b"\r\n", 1)[0].decode("latin-1", "replace")
            if not answer.startswith(want):
                failures.append(
                    f"framing {name}: want {want!r}, got {answer[:40]!r}"
                )
        st405, p405, h405 = _post_405(port, "/v1/cluster")
        framing["405-allow"] = h405.get("Allow", "")
        if st405 != 405 or h405.get("Allow") != "GET":
            failures.append(f"POST /v1/cluster: want 405 Allow=GET, got {st405} {h405.get('Allow')!r}")
        stj, pj, _ = _post_json(port, "/v1/index", b"{{{not json")
        if stj != 400:
            failures.append(f"broken JSON body: want 400, got {stj}")
        for i in range(6):  # seeded garbage must never crash the daemon
            junk = bytes(rng.randrange(32, 127) for _ in range(rng.randrange(8, 60)))
            raw_exchange(port, junk + b"\r\n\r\n", timeout=10)
        status, _, _ = get(port, "/healthz")
        if status != 200:
            failures.append(f"daemon unhealthy after framing chaos: {status}")
        phase_log["framing"] = framing
        print(f"framing: {len(cases) + 3} malformed probes mapped to explicit statuses")

        # -- phase 2: slow and half-closed clients ----------------------------
        t0 = time.perf_counter()
        answer = raw_exchange(port, b"GET /healthz HT", timeout=IO_TIMEOUT_S + 10)
        slowloris_s = time.perf_counter() - t0
        if not answer.startswith(b"HTTP/1.1 408 "):
            failures.append(f"slowloris header: want 408, got {answer[:40]!r}")
        stall = (
            b"POST /v1/index HTTP/1.1\r\nContent-Length: 100\r\n\r\nten-bytes!"
        )
        answer = raw_exchange(port, stall, timeout=IO_TIMEOUT_S + 10)
        if not answer.startswith(b"HTTP/1.1 408 "):
            failures.append(f"stalled body: want 408, got {answer[:40]!r}")
        # half-closed: full request then SHUT_WR — must still be answered
        with socket.create_connection(("127.0.0.1", port), timeout=30) as s:
            s.sendall(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
            s.shutdown(socket.SHUT_WR)
            s.settimeout(30)
            chunks = []
            while True:
                c = s.recv(4096)
                if not c:
                    break
                chunks.append(c)
        half = b"".join(chunks)
        if not half.startswith(b"HTTP/1.1 200 "):
            failures.append(f"half-closed client: want 200, got {half[:40]!r}")
        io_timeouts = counters(port).get("serve.io.timeouts", 0)
        if not io_timeouts:
            failures.append("serve.io.timeouts never incremented")
        phase_log["slow_clients"] = {
            "slowloris_s": round(slowloris_s, 3),
            "io_timeouts": io_timeouts,
        }
        print(f"slow clients: 408 after {slowloris_s:.1f}s, half-closed answered")

        # -- phase 3: worker SIGKILL mid-wave ---------------------------------
        kill_at = rng.randrange(len(models))
        os.environ["REPRO_CHAOS"] = f"kill@{kill_at}"
        try:
            kill_results = _concurrent_compares(port, models, "Tsem")
        finally:
            os.environ.pop("REPRO_CHAOS", None)
        kill_statuses = sorted(s for s, _ in kill_results.values())
        if kill_statuses != [200] * len(models):
            failures.append(f"kill mid-wave: want all 200, got {kill_statuses}")
        c = counters(port)
        if not c.get("engine.worker_deaths"):
            failures.append("kill mid-wave: the pool never saw the worker die")
        phase_log["kill_mid_wave"] = {
            "inject": f"kill@{kill_at}",
            "statuses": kill_statuses,
            "worker_deaths": c.get("engine.worker_deaths", 0),
            "retries": c.get("engine.retries", 0),
        }
        print(f"kill mid-wave (kill@{kill_at}): all joiners answered 200")

        # -- phase 4: poisoned key isolation ----------------------------------
        os.environ["REPRO_CHAOS"] = "exc!@0"  # every attempt: retries exhaust
        try:
            exc_results = _concurrent_compares(port, models, "Tsrc")
        finally:
            os.environ.pop("REPRO_CHAOS", None)
        exc_statuses = sorted(s for s, _ in exc_results.values())
        if exc_statuses != [200, 200, 500]:
            failures.append(
                f"poisoned key: want one 500 among 200s, got {exc_statuses}"
            )
        poisoned = [p for s, p in exc_results.values() if s == 500]
        if poisoned and not any(
            "serve/wave-failed" in d for d in poisoned[0].get("diagnostics", [])
        ):
            failures.append("poisoned key's 500 lacks the serve/wave-failed diag")
        failed_keys = counters(port).get("serve.batch.failed_keys", 0)
        if not failed_keys:
            failures.append("serve.batch.failed_keys never incremented")
        phase_log["poisoned_key"] = {
            "statuses": exc_statuses,
            "failed_keys": failed_keys,
        }
        print(f"poisoned key (exc!@0): isolated to one 500, siblings 200")

        # -- phase 5: flood past the admission budget -------------------------
        clog_path = f"/v1/cluster?app={APP}&metric=Tir"  # heavy cold wave
        n_clog = MAX_INFLIGHT + MAX_QUEUE  # fills every slot and queue seat
        clog_out: list[tuple[int, dict]] = [None] * n_clog
        clog_barrier = threading.Barrier(n_clog)

        def clogger(i: int) -> None:
            clog_barrier.wait()
            s, p, _ = get(port, clog_path)
            clog_out[i] = (s, p)

        cloggers = [threading.Thread(target=clogger, args=(i,)) for i in range(n_clog)]
        for t in cloggers:
            t.start()
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:  # wait until genuinely saturated
            s, h, _ = get(port, "/healthz")
            if s == 503 and h.get("state") == "overloaded":
                break
            time.sleep(0.02)
        else:
            failures.append("flood never drove /healthz to 503 overloaded")
        probe_path = (
            f"/v1/compare?app={APP}&model={models[0]}&baseline={BASELINE}&metric=Tsem"
        )
        probe_statuses: list[int] = []
        missing_retry_after = 0
        for _ in range(30):
            s, p, h = get(port, probe_path)
            probe_statuses.append(s)
            if s == 429 and h.get("Retry-After") != "1":
                missing_retry_after += 1
        for t in cloggers:
            t.join(timeout=300)
        shed = counters(port).get("serve.shed.requests", 0)
        bad = [s for s in probe_statuses if s not in (200, 429)]
        if bad:
            failures.append(f"flood probes saw unexpected statuses {sorted(set(bad))}")
        if 429 not in probe_statuses:
            failures.append("flood never shed a probe with 429")
        if missing_retry_after:
            failures.append(f"{missing_retry_after} 429s lacked Retry-After: 1")
        if not shed:
            failures.append("serve.shed.* counters stayed zero under flood")
        clog_ok = [r for r in clog_out if r and r[0] == 200]
        if len(clog_ok) != n_clog:
            failures.append(
                f"only {len(clog_ok)}/{n_clog} admitted flood queries finished 200"
            )
        newicks = {r[1]["newick"] for r in clog_ok}
        if len(newicks) > 1:
            failures.append("admitted flood queries returned differing payloads")

        # post-flood warm latency: the daemon must recover to bounded p99
        warm_samples: list[float] = []
        warm_lock = threading.Lock()
        warm_barrier = threading.Barrier(8)

        def warm_worker(wid: int) -> None:
            warm_barrier.wait()
            for i in range(25):
                path = (
                    f"/v1/compare?app={APP}&model={models[(wid + i) % len(models)]}"
                    f"&baseline={BASELINE}&metric=Tsem"
                )
                t0 = time.perf_counter()
                for _ in range(200):  # retry shed responses, measure successes
                    s, _, _ = get(port, path)
                    if s != 429:
                        break
                    time.sleep(0.05)
                with warm_lock:
                    warm_samples.append(time.perf_counter() - t0)

        warm_threads = [
            threading.Thread(target=warm_worker, args=(i,)) for i in range(8)
        ]
        for t in warm_threads:
            t.start()
        for t in warm_threads:
            t.join(timeout=300)
        ordered = sorted(warm_samples)
        p99 = ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))]
        if p99 * 1e3 > args.p99_gate_ms:
            failures.append(
                f"post-flood warm p99 {p99 * 1e3:.1f} ms over gate {args.p99_gate_ms} ms"
            )
        phase_log["flood"] = {
            "probes": {s: probe_statuses.count(s) for s in sorted(set(probe_statuses))},
            "shed": shed,
            "warm_p99_ms": round(p99 * 1e3, 2),
        }
        print(
            f"flood: {probe_statuses.count(429)}/30 probes shed, "
            f"{shed:g} total sheds, warm p99 {p99 * 1e3:.1f} ms"
        )

        # -- phase 6: bit-identity of everything served under chaos -----------
        spec = parse_metric("Tsem")
        cbs = index_app(APP, coverage=spec.coverage)
        expected = divergence_row(
            cbs[BASELINE], [cbs[m] for m in models], spec
        )
        for m in models:
            served = kill_results[m][1].get("divergence")
            if served != expected[m]:
                failures.append(
                    f"kill-phase {m}: served {served!r} != batch {expected[m]!r}"
                )
        src = parse_metric("Tsrc")
        cbs_src = index_app(APP, coverage=src.coverage)
        expected_src = divergence_row(
            cbs_src[BASELINE], [cbs_src[m] for m in models], src
        )
        for m in models:
            s, p = exc_results[m]
            if s == 200 and p.get("divergence") != expected_src[m]:
                failures.append(
                    f"exc-phase {m}: served {p.get('divergence')!r} "
                    f"!= batch {expected_src[m]!r}"
                )
        if not any(f.startswith(("kill-phase", "exc-phase")) for f in failures):
            print("identity: every surviving response bit-identical to the batch path")

        # -- phase 7: zero crashes --------------------------------------------
        status, _, _ = get(port, "/healthz")
        if status != 200:
            failures.append(f"final /healthz: want 200, got {status}")
        if not thread.is_alive():
            failures.append("daemon thread died during the chaos run")
        serve_counters = {
            k: v
            for k, v in counters(port).items()
            if k.startswith(("serve.", "engine."))
        }
        daemon.stop()
        thread.join(timeout=120)
        if thread.is_alive():
            failures.append("daemon did not shut down within 120s")

    report = {
        "workload": {"app": APP, "baseline": BASELINE, "models": models},
        "seed": args.seed,
        "budgets": {
            "max_inflight": MAX_INFLIGHT,
            "max_queue": MAX_QUEUE,
            "io_timeout_s": IO_TIMEOUT_S,
            "retries": RETRIES,
        },
        "phases": phase_log,
        "gates": {"p99_ms": args.p99_gate_ms},
        "counters": serve_counters,
        "failures": failures,
        "metrics": obs.metrics_json(col),
    }
    runledger.write_harness_artifact(args.out, "serve-chaos", report)
    runledger.record_harness_run(
        args.ledger_dir, "serve-chaos", col, report, duration_s=time.perf_counter() - t_start
    )
    print(f"wrote {args.out}")

    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    if not failures:
        print(
            "PASS: daemon survived framing, slow-client, kill, poison and flood "
            "chaos with zero crashes and bit-identical responses"
        )
    return 1 if failures else 0


def _post_405(port: int, path: str):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("POST", path, body=b"")
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read()), dict(resp.getheaders())
    finally:
        conn.close()


def _post_json(port: int, path: str, body: bytes):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("POST", path, body=body)
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read()), dict(resp.getheaders())
    finally:
        conn.close()


def _concurrent_compares(port: int, models: list[str], metric: str) -> dict:
    """Fire one compare per model simultaneously (they coalesce into one
    wave); returns ``{model: (status, payload)}``."""
    out: dict[str, tuple[int, dict]] = {}
    lock = threading.Lock()
    barrier = threading.Barrier(len(models))

    def one(m: str) -> None:
        barrier.wait()
        s, p, _ = get(
            port,
            f"/v1/compare?app={APP}&model={m}&baseline={BASELINE}&metric={metric}",
        )
        with lock:
            out[m] = (s, p)

    threads = [threading.Thread(target=one, args=(m,)) for m in models]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=300)
    return out


if __name__ == "__main__":
    sys.exit(main())
