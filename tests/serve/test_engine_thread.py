"""Serve runs every engine wave on its one engine thread, to the end.

Drives the real ``silvervale serve`` entry point on a thread with each
engine wave slowed past ``--wave-timeout-s``. That budget belongs to the
distance pool and applies only with ``--jobs N``; under the default
``--jobs 1`` nothing times a wave out, so every compare answers 200 with
the batch value and no wave is abandoned to a second thread (which would
break the single-writer assumption the TED memo and the registry cache
rely on).
"""

import threading
import time

from repro.corpus.registry import index_app
from repro.distance.engine import DistanceEngine
from repro.workflow import cli
from repro.workflow.comparer import divergence, parse_metric

from tests.serve.test_endpoints import APP, BASELINE, Client


def test_slow_waves_finish_on_one_engine_thread(tmp_path, monkeypatch):
    map_tasks = DistanceEngine.map_tasks
    lock = threading.Lock()
    waves: list[str] = []  # engine thread name per wave
    running = peak = 0

    def slow_map_tasks(self, *args, **kwargs):
        nonlocal running, peak
        with lock:
            waves.append(threading.current_thread().name)
            running += 1
            peak = max(peak, running)
        try:
            time.sleep(1.0)  # four times the wave budget below
            return map_tasks(self, *args, **kwargs)
        finally:
            with lock:
                running -= 1

    monkeypatch.setattr(DistanceEngine, "map_tasks", slow_map_tasks)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    port_file = tmp_path / "port"
    argv = ["serve", "--port", "0", "--port-file", str(port_file), "--wave-timeout-s", "0.25"]
    exit_code = {}
    daemon = threading.Thread(target=lambda: exit_code.setdefault("rc", cli.main(argv)))
    daemon.start()
    try:
        deadline = time.monotonic() + 120
        while not port_file.exists() and time.monotonic() < deadline:
            assert daemon.is_alive(), "serve exited before writing its port file"
            time.sleep(0.05)
        client = Client(int(port_file.read_text()))
        spec = parse_metric("Tsem")
        cbs = index_app(APP)
        for model in ("omp", "array"):
            status, payload = client.get(
                f"/v1/compare?app={APP}&model={model}&baseline={BASELINE}"
            )
            assert status == 200, payload
            assert payload["divergence"] == divergence(cbs[BASELINE], cbs[model], spec)
    finally:
        if port_file.exists():
            Client(int(port_file.read_text())).post("/v1/shutdown")
        daemon.join(timeout=120)
    assert exit_code == {"rc": 0}
    assert len(waves) == 2 and peak == 1
    assert waves[0].startswith("serve-engine") and set(waves) == {waves[0]}
