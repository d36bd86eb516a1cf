"""End-to-end daemon tests over the small Fortran corpus.

One module-scoped daemon serves most tests (boot + warm costs a couple of
seconds); lifecycle tests that need their own daemon boot a cold one
without warm-up. The bit-identity tests assert the serve responses equal
the batch-path results over the same corpus — the tentpole guarantee.
"""

import http.client
import json
import socket
import threading

import pytest

from repro import obs
from repro.analysis.cluster import cluster_codebases
from repro.analysis.heatmap import HEATMAP_SPECS, divergence_heatmap
from repro.corpus.registry import app_models, clear_index_cache, index_app
from repro.distance.engine import DistanceEngine
from repro.distance.ted import clear_ted_cache
from repro.serve.daemon import ServeDaemon
from repro.workflow.comparer import divergence_row, nearest, parse_metric

APP = "babelstream-fortran"
BASELINE = "sequential"


class Client:
    """Tiny keep-alive JSON client over one http.client connection."""

    def __init__(self, port: int):
        self.port = port

    def request(self, method: str, path: str, body: bytes = b""):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        try:
            conn.request(method, path, body=body or None)
            resp = conn.getresponse()
            payload = json.loads(resp.read())
            return resp.status, payload, dict(resp.getheaders())
        finally:
            conn.close()

    def get(self, path: str):
        status, payload, _ = self.request("GET", path)
        return status, payload

    def post(self, path: str, body: dict = None):
        data = json.dumps(body).encode() if body else b""
        status, payload, _ = self.request("POST", path, data)
        return status, payload


def batch_nearest(metric: str, k: int) -> list[dict]:
    """The library ranking ``/v1/nearest`` must reproduce bit for bit."""
    spec = parse_metric(metric)
    cbs = index_app(APP, coverage=spec.coverage)
    others = [cb for m, cb in cbs.items() if m != BASELINE]
    return [{"model": m, "divergence": d} for d, m in nearest(cbs[BASELINE], others, spec)[:k]]


def boot(daemon: ServeDaemon) -> threading.Thread:
    t = threading.Thread(target=daemon.run, daemon=True)
    t.start()
    assert daemon.ready.wait(120), "daemon did not become ready"
    return t


@pytest.fixture(scope="module")
def served():
    """Warm daemon + collector + client shared by the read-only tests."""
    clear_index_cache()
    clear_ted_cache()
    with obs.collect() as col:
        daemon = ServeDaemon(
            DistanceEngine(),
            port=0,
            warm=[APP],
            window_s=0.05,
            quiet=True,
        )
        thread = boot(daemon)
        yield daemon, Client(daemon.port), col
        daemon.stop()
        thread.join(timeout=30)
        assert not thread.is_alive()


class TestBasics:
    def test_healthz(self, served):
        _, client, _ = served
        status, payload = client.get("/healthz")
        assert status == 200 and payload["status"] == "ok"

    def test_apps(self, served):
        _, client, _ = served
        status, payload = client.get("/v1/apps")
        assert status == 200
        assert payload["apps"][APP] == app_models(APP)

    def test_unknown_path_404(self, served):
        _, client, _ = served
        status, payload = client.get("/v1/bogus")
        assert status == 404 and "error" in payload

    def test_wrong_method_405(self, served):
        _, client, _ = served
        status, _ = client.post("/v1/compare")
        assert status == 405

    def test_unknown_app_400_with_own_diag(self, served):
        _, client, _ = served
        status, payload = client.get("/v1/compare?app=nope&model=x")
        assert status == 400
        assert "nope" in payload["error"]
        assert any("serve/bad-request" in d for d in payload["diagnostics"])

    def test_missing_param_400(self, served):
        _, client, _ = served
        status, payload = client.get(f"/v1/compare?app={APP}")
        assert status == 400 and "model" in payload["error"]

    def test_index_reports_units(self, served):
        _, client, _ = served
        status, payload = client.get(f"/v1/index?app={APP}&model={BASELINE}")
        assert status == 200
        assert payload["units"] >= 1
        assert payload["fingerprint"]

    def test_responses_carry_request_ids(self, served):
        _, client, _ = served
        _, p1, h1 = client.request("GET", "/healthz")
        _, p2, h2 = client.request("GET", "/healthz")
        assert p2["request_id"] > p1["request_id"]
        assert h1["X-Request-Id"] == str(p1["request_id"])

    def test_stats_exposes_hot_tier_and_metrics(self, served):
        _, client, _ = served
        status, payload = client.get("/v1/stats")
        assert status == 200
        assert payload["serve"]["codebases"] >= len(app_models(APP))
        assert "serve.requests" in payload["metrics"]["counters"]


class TestBitIdentity:
    """Serve responses must equal the batch path over the same corpus."""

    def test_compare_matches_divergence_row(self, served):
        _, client, _ = served
        spec = parse_metric("Tsem")
        cbs = index_app(APP, coverage=spec.coverage)
        expected = divergence_row(cbs[BASELINE], [cbs["omp"]], spec)["omp"]
        status, payload = client.get(
            f"/v1/compare?app={APP}&model=omp&baseline={BASELINE}"
        )
        assert status == 200
        assert payload["divergence"] == expected  # bit-identical, no tolerance
        assert f"= {expected:.4f}" in payload["text"]

    def test_cluster_matches_cluster_codebases(self, served):
        _, client, _ = served
        spec = parse_metric("Tsem")
        cbs = index_app(APP, coverage=spec.coverage)
        names = list(cbs)
        dend = cluster_codebases([cbs[m] for m in names], names, spec)
        status, payload = client.get(f"/v1/cluster?app={APP}")
        assert status == 200
        assert payload["labels"] == names
        assert payload["newick"] == dend.newick()
        assert payload["leaf_order"] == dend.leaf_order()
        assert payload["linkage"] == [[float(v) for v in row] for row in dend.linkage]

    def test_heatmap_matches_divergence_heatmap(self, served):
        _, client, _ = served
        cbs = index_app(APP, coverage=True)
        models = [cb for m, cb in cbs.items() if m != BASELINE]
        data = divergence_heatmap(cbs[BASELINE], models, HEATMAP_SPECS)
        status, payload = client.get(f"/v1/heatmap?app={APP}&baseline={BASELINE}")
        assert status == 200
        assert payload["csv"] == data.to_csv()  # bit-identical grid
        assert payload["rows"] == data.row_labels
        assert payload["cols"] == data.col_labels

    def test_warm_repeat_is_identical(self, served):
        _, client, _ = served
        path = f"/v1/compare?app={APP}&model=omp&baseline={BASELINE}"
        _, first = client.get(path)
        _, again = client.get(path)
        assert again["divergence"] == first["divergence"]

    def test_nearest_orders_by_symmetrized_divergence(self, served):
        _, client, _ = served
        status, payload = client.get(f"/v1/nearest?app={APP}&model={BASELINE}&k=3")
        assert status == 200
        ds = [n["divergence"] for n in payload["neighbors"]]
        assert len(ds) == 3
        assert ds == sorted(ds)
        # divergences lie in [0, 2] (Eq. 7's dmax is the larger size, not
        # an upper bound on TED); these Fortran T_sem ones stay below 1
        assert all(0.0 <= d <= 1.0 for d in ds)

    def test_nearest_matches_batch_nearest(self, served):
        _, client, _ = served
        status, payload = client.get(f"/v1/nearest?app={APP}&model={BASELINE}&k=3")
        assert status == 200
        assert "mode" not in payload and "index" not in payload
        assert payload["neighbors"] == batch_nearest("Tsem", 3)

    def test_nearest_non_tree_metric_scans_without_diag(self, served):
        _, client, _ = served
        status, payload = client.get(
            f"/v1/nearest?app={APP}&model={BASELINE}&k=2&metric=SLOC"
        )
        assert status == 200
        assert payload["diagnostics"] == []
        assert payload["neighbors"] == batch_nearest("SLOC", 2)


class TestCoalescing:
    """N concurrent requests over overlapping pairs → one engine wave."""

    def test_concurrent_compares_one_wave_and_isolated_diags(self):
        clear_index_cache()
        with obs.collect() as col:
            daemon = ServeDaemon(
                DistanceEngine(),
                port=0,
                warm=[APP],
                window_s=0.4,  # wide window: all client threads land in one wave
                quiet=True,
            )
            thread = boot(daemon)
            client = Client(daemon.port)
            waves_before = col.counters.get("engine.waves", 0)

            models = ["omp", "array", "openacc"]
            paths = [
                f"/v1/compare?app={APP}&model={m}&baseline={BASELINE}"
                for m in models
            ] * 2  # 6 requests, 3 unique directed pairs
            paths.append(
                f"/v1/compare?app={APP}&model=not-a-model&baseline={BASELINE}"
            )  # bad rider

            results = [None] * len(paths)
            barrier = threading.Barrier(len(paths))

            def hit(i, path):
                barrier.wait()
                results[i] = client.get(path)

            threads = [
                threading.Thread(target=hit, args=(i, p)) for i, p in enumerate(paths)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)

            good = [r for r in results if r[0] == 200]
            bad = [r for r in results if r[0] == 400]
            assert len(good) == 6 and len(bad) == 1

            # exactly one ChunkedPool wave for the whole unique pair set
            assert col.counters["engine.waves"] - waves_before == 1
            # 6 demands over 3 unique keys → 3 folded duplicates
            assert col.counters["serve.batch.coalesced"] == 3
            assert col.counters["serve.batch.tasks"] == 3

            # per-request diag isolation: the failing request carries its own
            # diagnostic; none of the successes see it
            assert any("not-a-model" in d for d in bad[0][1]["diagnostics"])
            for _, payload in good:
                assert payload["diagnostics"] == []

            # identical duplicated requests got identical values
            by_model = {}
            for _, payload in good:
                by_model.setdefault(payload["model"], set()).add(payload["divergence"])
            assert all(len(vals) == 1 for vals in by_model.values())

            daemon.stop()
            thread.join(timeout=30)


class TestLifecycle:
    def test_port_file_and_invalidate_and_shutdown_endpoint(self, tmp_path):
        port_file = tmp_path / "port"
        daemon = ServeDaemon(
            DistanceEngine(), port=0, port_file=str(port_file), quiet=True
        )
        thread = boot(daemon)
        assert int(port_file.read_text()) == daemon.port
        client = Client(daemon.port)

        status, payload = client.get(f"/v1/index?app={APP}&model={BASELINE}")
        assert status == 200
        status, payload = client.get(f"/v1/nearest?app={APP}&model={BASELINE}&k=1")
        assert status == 200
        status, payload = client.post("/v1/invalidate")
        assert status == 200
        assert payload["invalidated"]["codebases"] >= 1

        status, payload = client.post("/v1/shutdown")
        assert status == 200 and payload["shutting_down"] is True
        thread.join(timeout=30)
        assert not thread.is_alive()
        # drain removes the port file so supervisors can't race a dead port
        assert not port_file.exists()

    def test_keep_alive_connection_reuse(self):
        daemon = ServeDaemon(DistanceEngine(), port=0, quiet=True)
        thread = boot(daemon)
        conn = http.client.HTTPConnection("127.0.0.1", daemon.port, timeout=30)
        try:
            ids = []
            for _ in range(3):  # same socket, three requests
                conn.request("GET", "/healthz")
                resp = conn.getresponse()
                ids.append(json.loads(resp.read())["request_id"])
            assert ids == sorted(ids) and len(set(ids)) == 3
        finally:
            conn.close()
            daemon.stop()
            thread.join(timeout=30)

    def test_malformed_request_gets_400_and_close(self):
        daemon = ServeDaemon(DistanceEngine(), port=0, quiet=True)
        thread = boot(daemon)
        try:
            with socket.create_connection(("127.0.0.1", daemon.port), timeout=30) as s:
                s.sendall(b"NONSENSE\r\n\r\n")
                data = s.recv(4096)
            assert data.startswith(b"HTTP/1.1 400 ")
        finally:
            daemon.stop()
            thread.join(timeout=30)

    def test_stop_is_graceful_and_idempotent(self):
        daemon = ServeDaemon(DistanceEngine(), port=0, quiet=True)
        thread = boot(daemon)
        daemon.stop()
        daemon.stop()
        thread.join(timeout=30)
        assert not thread.is_alive()
