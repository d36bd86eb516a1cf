"""CI load-test harness for the ``silvervale serve`` daemon.

Boots the daemon in-process against a small fixed corpus, then runs four
phases:

1. **concurrent cold** — on its own daemon with a two-worker engine,
   ``COLD_REQUESTS`` identical cold ``/v1/cluster`` requests at once.
   A worker's kernels never reach this process's TED memo, so only the
   batcher keeps them from running every kernel once per request. Gates:
   exactly **one** new ``engine.waves`` and at most one ``ted.zs.calls``
   per unique model pair.
2. **cold** — one request per analysis endpoint, populating the hot tier;
   latencies recorded but not gated (cold queries do real engine work).
3. **identity** — the same analyses computed through the batch path
   in-process; every serve response must be **bit-identical** (no float
   tolerance) to the batch result. This is the tentpole guarantee.
4. **warm** — N concurrent keep-alive clients each issue a mixed stream of
   warm queries. Gates:

   * warm p50 ≤ ``--p50-gate-ms`` and p99 ≤ ``--p99-gate-ms``,
   * the warm phase performs **zero Zhang–Shasha evaluations**
     (``ted.zs.calls`` delta over the phase == 0 — every value comes out
     of the hot tier),
   * the warm phase misses the divergence memo **zero times** and so runs
     **zero engine waves** (``serve.memo.miss`` and ``engine.waves`` deltas
     == 0): the latency gates alone cannot tell a serve without its memo
     from one with it on every run,
   * every response with the same query returned the identical payload.

Writes the ``SERVE_pr.json`` harness artifact and (with ``--ledger-dir``)
records a ``harness:serve`` snapshot so ``silvervale obs diff`` can compare
the serve run against the batch baseline recorded earlier in the job.

Usage: PYTHONPATH=src python benchmarks/load_serve.py [--out SERVE_pr.json]
"""

from __future__ import annotations

import argparse
import http.client
import json
import statistics
import sys
import threading
import time

from repro import obs
from repro.analysis.cluster import cluster_codebases
from repro.analysis.heatmap import HEATMAP_SPECS, divergence_heatmap
from repro.corpus.registry import app_models, clear_index_cache, index_app
from repro.distance.engine import DistanceEngine
from repro.distance.ted import clear_ted_cache
from repro.obs import ledger as runledger
from repro.serve.daemon import ServeDaemon
from repro.workflow.comparer import divergence_row, parse_metric

APP = "babelstream-fortran"
BASELINE = "sequential"
METRIC = "Tsem"

#: identical cold cluster requests sent at once in the concurrent-cold phase
COLD_REQUESTS = 8


class Client:
    """One keep-alive connection issuing timed JSON requests.

    Reconnects once per request: the daemon's slow-client guard silently
    closes keep-alive connections idle past ``--io-timeout-s``, which this
    harness's long in-process identity phase legitimately exceeds.
    """

    def __init__(self, port: int):
        self.port = port
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=300)

    def get(self, path: str) -> tuple[int, dict, float]:
        t0 = time.perf_counter()
        try:
            self.conn.request("GET", path)
            resp = self.conn.getresponse()
        except (http.client.HTTPException, OSError):
            self.conn.close()
            self.conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=300)
            self.conn.request("GET", path)
            resp = self.conn.getresponse()
        payload = json.loads(resp.read())
        return resp.status, payload, time.perf_counter() - t0

    def post(self, path: str) -> tuple[int, dict]:
        self.conn.request("POST", path, body=b"")
        resp = self.conn.getresponse()
        return resp.status, json.loads(resp.read())

    def close(self) -> None:
        self.conn.close()


def percentile(samples: list[float], frac: float) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(frac * len(ordered)))]


def counters_from_stats(client: Client) -> dict:
    status, payload, _ = client.get("/v1/stats")
    assert status == 200
    return payload["metrics"].get("counters", {})


def boot(engine: DistanceEngine) -> tuple[ServeDaemon, threading.Thread]:
    """A warm daemon on a thread, ready to serve."""
    daemon = ServeDaemon(engine, port=0, warm=[APP], window_s=0.005, quiet=True)
    thread = threading.Thread(target=daemon.run, daemon=True)
    thread.start()
    if not daemon.ready.wait(300):
        raise SystemExit("FAIL: daemon did not become ready")
    return daemon, thread


def concurrent_cold(n: int) -> dict:
    """``n`` identical cold cluster requests at once on a two-worker
    engine; returns their statuses and the waves, kernels and wall time
    they cost."""
    daemon, thread = boot(DistanceEngine(jobs=2))
    probe = Client(daemon.port)
    before = counters_from_stats(probe)
    statuses: list[int] = []
    lock = threading.Lock()
    barrier = threading.Barrier(n)

    def one() -> None:
        c = Client(daemon.port)
        try:
            barrier.wait()
            status, _, _ = c.get(f"/v1/cluster?app={APP}&metric={METRIC}")
        finally:
            c.close()
        with lock:
            statuses.append(status)

    clients = [threading.Thread(target=one) for _ in range(n)]
    t0 = time.perf_counter()
    for c in clients:
        c.start()
    for c in clients:
        c.join()
    wall = time.perf_counter() - t0
    after = counters_from_stats(probe)
    probe.close()
    daemon.stop()
    thread.join(timeout=60)
    return {
        "requests": n,
        "statuses": sorted(statuses),
        "wall_s": wall,
        "waves": after.get("engine.waves", 0) - before.get("engine.waves", 0),
        "kernels": after.get("ted.zs.calls", 0) - before.get("ted.zs.calls", 0),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="SERVE_pr.json", help="result JSON path")
    parser.add_argument(
        "--ledger-dir",
        default=None,
        metavar="DIR",
        help="record a harness:serve snapshot into this run-ledger root",
    )
    parser.add_argument("--clients", type=int, default=8, help="concurrent warm clients")
    parser.add_argument(
        "--queries", type=int, default=25, help="warm queries per client"
    )
    parser.add_argument(
        "--p50-gate-ms", type=float, default=100.0, help="warm p50 gate (ms)"
    )
    parser.add_argument(
        "--p99-gate-ms", type=float, default=1000.0, help="warm p99 gate (ms)"
    )
    args = parser.parse_args()
    t_start = time.perf_counter()

    clear_index_cache()
    clear_ted_cache()
    models = [m for m in app_models(APP) if m != BASELINE]
    failures: list[str] = []

    pairs = len(app_models(APP)) * (len(app_models(APP)) - 1) // 2

    with obs.collect() as col:
        # -- phase 1: concurrent identical cold requests, one wave ------------
        burst = concurrent_cold(COLD_REQUESTS)
        print(
            f"concurrent cold: {burst['requests']} identical cluster requests, "
            f"{burst['waves']:g} wave(s), {burst['kernels']:g} kernels "
            f"for {pairs} pairs in {burst['wall_s']:.2f}s (2 workers)"
        )
        if burst["statuses"] != [200] * burst["requests"]:
            failures.append(f"concurrent cold statuses {burst['statuses']}")
        if burst["waves"] != 1:
            failures.append(f"concurrent cold ran {burst['waves']:g} engine waves (want 1)")
        if burst["kernels"] > pairs:
            failures.append(
                f"concurrent cold ran {burst['kernels']:g} kernels for {pairs} pairs"
            )

        daemon, thread = boot(DistanceEngine())
        client = Client(daemon.port)
        print(f"daemon ready on port {daemon.port} (warm corpus: {APP})")

        # -- phase 2: cold queries populate the hot tier ---------------------
        cold: dict[str, float] = {}
        cold_payloads: dict[str, dict] = {}
        cold_paths = {
            "compare": f"/v1/compare?app={APP}&model={models[0]}&baseline={BASELINE}&metric={METRIC}",
            "cluster": f"/v1/cluster?app={APP}&metric={METRIC}",
            "heatmap": f"/v1/heatmap?app={APP}&baseline={BASELINE}",
            "nearest": f"/v1/nearest?app={APP}&model={BASELINE}&k=3",
        }
        for name, path in cold_paths.items():
            status, payload, dt = client.get(path)
            if status != 200:
                failures.append(f"cold {name} returned {status}: {payload.get('error')}")
                continue
            cold[name], cold_payloads[name] = dt, payload
            print(f"cold {name:8s} {dt * 1e3:9.1f} ms")

        # -- phase 3: bit-identity against the batch path --------------------
        spec = parse_metric(METRIC)
        cbs = index_app(APP, coverage=spec.coverage)
        expected_cmp = divergence_row(cbs[BASELINE], [cbs[models[0]]], spec)[models[0]]
        if cold_payloads["compare"]["divergence"] != expected_cmp:
            failures.append(
                f"compare diverges from batch path: served "
                f"{cold_payloads['compare']['divergence']!r}, batch {expected_cmp!r}"
            )
        names = list(cbs)
        dend = cluster_codebases([cbs[m] for m in names], names, spec)
        if cold_payloads["cluster"]["newick"] != dend.newick():
            failures.append("cluster newick diverges from batch path")
        cov = index_app(APP, coverage=True)
        grid = divergence_heatmap(
            cov[BASELINE], [cov[m] for m in names if m != BASELINE], HEATMAP_SPECS
        )
        if cold_payloads["heatmap"]["csv"] != grid.to_csv():
            failures.append("heatmap grid diverges from batch path")
        if not failures:
            print("identity: serve responses bit-identical to the batch path")

        # -- phase 4: concurrent warm load ------------------------------------
        before = counters_from_stats(client)
        mix = list(cold_paths.values()) + [
            f"/v1/compare?app={APP}&model={m}&baseline={BASELINE}&metric={METRIC}"
            for m in models
        ]
        samples: list[float] = []
        errors: list[str] = []
        reference: dict[str, dict] = {}
        lock = threading.Lock()
        barrier = threading.Barrier(args.clients)

        def worker(worker_id: int) -> None:
            c = Client(daemon.port)
            try:
                barrier.wait()
                for i in range(args.queries):
                    path = mix[(worker_id + i) % len(mix)]
                    status, payload, dt = c.get(path)
                    payload.pop("request_id", None)
                    payload.pop("uptime_s", None)
                    with lock:
                        samples.append(dt)
                        if status != 200:
                            errors.append(f"{path} -> {status}")
                        elif path in reference:
                            if reference[path] != payload:
                                errors.append(f"{path} returned differing payloads")
                        else:
                            reference[path] = payload
            finally:
                c.close()

        workers = [
            threading.Thread(target=worker, args=(i,)) for i in range(args.clients)
        ]
        t0 = time.perf_counter()
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        warm_wall = time.perf_counter() - t0
        after = counters_from_stats(client)

        p50 = percentile(samples, 0.50)
        p99 = percentile(samples, 0.99)
        total = len(samples)
        print(
            f"warm load: {args.clients} clients x {args.queries} queries "
            f"({total} total) in {warm_wall:.2f}s "
            f"({total / warm_wall:.0f} req/s)"
        )
        print(
            f"warm latency: p50 {p50 * 1e3:.2f} ms  p99 {p99 * 1e3:.2f} ms  "
            f"mean {statistics.fmean(samples) * 1e3:.2f} ms"
        )

        if errors:
            failures.extend(errors[:5])
        if p50 * 1e3 > args.p50_gate_ms:
            failures.append(
                f"warm p50 {p50 * 1e3:.2f} ms over gate {args.p50_gate_ms} ms"
            )
        if p99 * 1e3 > args.p99_gate_ms:
            failures.append(
                f"warm p99 {p99 * 1e3:.2f} ms over gate {args.p99_gate_ms} ms"
            )
        deltas = {
            k: after.get(k, 0) - before.get(k, 0)
            for k in ("ted.zs.calls", "engine.waves", "serve.memo.miss")
        }
        zs_delta = deltas["ted.zs.calls"]
        for name, delta in deltas.items():
            if delta != 0:
                failures.append(f"warm phase moved {name} by {delta:g} (want 0)")
        if not any(deltas.values()):
            print("warm phase: 0 Zhang-Shasha evaluations, 0 engine waves, 0 memo misses")

        serve_counters = {
            k: v
            for k, v in counters_from_stats(client).items()
            if k.startswith(("serve.", "engine.waves", "ted.zs"))
        }
        client.close()
        daemon.stop()
        thread.join(timeout=60)
        if thread.is_alive():
            failures.append("daemon did not shut down within 60s")

    report = {
        "workload": {
            "app": APP,
            "baseline": BASELINE,
            "metric": METRIC,
            "clients": args.clients,
            "queries_per_client": args.queries,
        },
        "concurrent_cold": burst,
        "cold_latency_s": cold,
        "warm": {
            "requests": total,
            "wall_s": warm_wall,
            "p50_ms": p50 * 1e3,
            "p99_ms": p99 * 1e3,
            "zs_calls": zs_delta,
            "waves": deltas["engine.waves"],
            "memo_misses": deltas["serve.memo.miss"],
        },
        "gates": {
            "concurrent_cold_waves": 1,
            "concurrent_cold_kernels": pairs,
            "p50_ms": args.p50_gate_ms,
            "p99_ms": args.p99_gate_ms,
            "zs_calls": 0,
            "waves": 0,
            "memo_misses": 0,
        },
        "counters": serve_counters,
        "failures": failures,
        "metrics": obs.metrics_json(col),
    }
    runledger.write_harness_artifact(args.out, "serve", report)
    runledger.record_harness_run(
        args.ledger_dir, "serve", col, report, duration_s=time.perf_counter() - t_start
    )
    print(f"wrote {args.out}")

    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    if not failures:
        print(
            f"PASS: {burst['requests']} concurrent cold requests in one wave, "
            f"{total} warm queries, p50 {p50 * 1e3:.2f} ms / "
            f"p99 {p99 * 1e3:.2f} ms, bit-identical to batch, 0 ZS calls, 0 memo misses"
        )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
