"""CI determinism gate for the distance engine.

Asserts, on a small fixed TeaLeaf workload, that

1. the parallel (``jobs=2``) divergence matrix is ``np.array_equal`` to the
   serial one — scheduling must not change a single bit;
2. a matrix built with the TED pruning cascade disabled (the null bound
   oracle installed) is bit-identical to the default cascade-enabled one —
   pruning may only skip DP work whose outcome is already pinned, never
   change a value;
3. a matrix rebuilt entirely from the persistent cache (fresh process-level
   memo, every pair a disk hit) is bit-identical to the directly computed
   one — the cache round-trip loses nothing;
4. a run killed halfway and resumed from its checkpoint produces the same
   matrix while recomputing only the unfinished pairs — resume must neither
   lose work nor redo it;
5. an incremental re-index from unit artifacts yields a bit-identical
   Codebase DB with zero frontend invocations, and touching one source file
   re-fronts exactly that one unit;
6. nearest-neighbor answers agree bit-for-bit across all three surfaces:
   the VP-tree index query, the brute-force linear scan, and the serve
   daemon's ``/v1/nearest`` endpoint (both its index mode and ``brute=1``);
7. each model's ``divergence_row`` over the other models equals its
   ``divergence_matrix`` row bit for bit — both evaluate the same
   symmetric ``pair:`` demands.

Usage: PYTHONPATH=src python benchmarks/check_determinism.py
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import numpy as np

from repro import obs
from repro.cache import TedCacheStore
from repro.ckpt import CheckpointStore
from repro.corpus import index_app
from repro.distance.bounds import BruteForceOracle, set_oracle
from repro.distance.engine import DistanceEngine
from repro.distance.ted import clear_ted_cache
from repro.corpus.registry import app_models, build_fs, get_spec
from repro.workflow.codebasedb import save_codebase_db
from repro.workflow.comparer import MetricSpec, divergence_matrix, divergence_row
from repro.workflow.indexer import index_codebase
from repro.workflow.unitstore import UnitArtifactStore

N_MODELS = 4
SPEC = MetricSpec("Tsem")


def build(codebases, engine: DistanceEngine) -> np.ndarray:
    clear_ted_cache()
    return divergence_matrix(codebases, SPEC, engine=engine)


class InterruptingEngine(DistanceEngine):
    """Serial engine that raises KeyboardInterrupt after ``stop_after``
    computed tasks — a deterministic stand-in for Ctrl-C at 50%."""

    def __init__(self, stop_after: int, **kw):
        super().__init__(**kw)
        self.stop_after = stop_after
        self.computed = 0

    def map_tasks(self, fn, tasks, keys=None, fail_value=float("nan"), prepare=None):
        def guarded(task):
            if self.computed >= self.stop_after:
                raise KeyboardInterrupt
            out = fn(task)
            self.computed += 1
            return out

        return super().map_tasks(
            guarded, tasks, keys=keys, fail_value=fail_value, prepare=prepare
        )


def check_resume(codebases, serial: np.ndarray, failures: list[str]) -> None:
    n_tasks = len(codebases) * (len(codebases) - 1) // 2
    with tempfile.TemporaryDirectory(prefix="svc-det-ckpt-") as tmp:
        store = CheckpointStore(Path(tmp))
        clear_ted_cache()
        with obs.collect() as full_col:
            eng = InterruptingEngine(
                n_tasks + 1, checkpoint=store, checkpoint_every=0.0
            )
            divergence_matrix(codebases, SPEC, engine=eng)  # uninterrupted control
        full_calls = full_col.counters.get("ted.zs.calls", 0)

        killer = InterruptingEngine(
            n_tasks // 2, checkpoint=store, checkpoint_every=0.0
        )
        clear_ted_cache()
        try:
            divergence_matrix(codebases, SPEC, engine=killer)
        except KeyboardInterrupt:
            pass
        else:
            failures.append("interrupting engine ran to completion (gate bug)")
            return
        if killer.last_checkpoint is None:
            failures.append("killed run left no checkpoint behind")
            return

        clear_ted_cache()
        with obs.collect() as col:
            resumed = divergence_matrix(
                codebases,
                SPEC,
                engine=DistanceEngine(checkpoint=store, resume=True),
            )
        resumed_calls = col.counters.get("ted.zs.calls", 0)
        if not np.array_equal(serial, resumed):
            failures.append("resumed matrix differs from uninterrupted serial run")
        elif not 0 < resumed_calls < full_calls:
            failures.append(
                f"resume recomputed {resumed_calls:g} ZS calls "
                f"(want strictly between 0 and the full run's {full_calls:g})"
            )
        else:
            print(
                "ok: kill-at-50% + resume bit-identical, "
                f"recomputed {resumed_calls:g}/{full_calls:g} ZS calls"
            )


def check_rows(codebases, serial: np.ndarray, failures: list[str]) -> None:
    clear_ted_cache()
    before = len(failures)
    for i, cb in enumerate(codebases):
        others = [c for c in codebases if c is not cb]
        row = divergence_row(cb, others, SPEC, engine=DistanceEngine(jobs=1))
        got = np.array([row[c.model] for c in others])
        want = np.array([serial[i, j] for j in range(len(codebases)) if j != i])
        if got.tobytes() != want.tobytes():
            failures.append(f"divergence_row({cb.model}) differs from its matrix row")
    if len(failures) == before:
        print("ok: every divergence_row bit-identical to its matrix row")


def check_incremental(failures: list[str]) -> None:
    models = app_models("tealeaf")[:2]

    def index_all(store, touch: str | None = None):
        dbs = {}
        with obs.collect() as col:
            for model in models:
                spec = get_spec("tealeaf", model)
                fs = build_fs("tealeaf", model)
                if model == touch:
                    main = spec.units["main"]
                    fs.files[main] = fs.files[main] + "// determinism touch\n"
                cb = index_codebase(spec, fs, run_coverage=True, artifacts=store)
                with tempfile.NamedTemporaryFile(suffix=".svdb") as tmp:
                    save_codebase_db(cb, tmp.name)
                    dbs[model] = Path(tmp.name).read_bytes()
        return dbs, col.counters

    before = len(failures)
    with tempfile.TemporaryDirectory(prefix="svc-det-incr-") as tmp:
        store = UnitArtifactStore(Path(tmp) / "artifacts")
        cold_dbs, _ = index_all(store)
        warm_dbs, warm = index_all(store)
        if warm.get("index.units", 0) != 0:
            failures.append(
                f"warm re-index invoked frontends for {warm['index.units']:g} units (want 0)"
            )
        if warm_dbs != cold_dbs:
            failures.append("warm re-index DB not bit-identical to cold index")
        _, touched = index_all(store, touch=models[0])
        if touched.get("index.units", 0) != 1 or touched.get("index.unit.miss", 0) != 1:
            failures.append(
                f"touching one file re-fronted {touched.get('index.units', 0):g} units "
                "(want exactly 1)"
            )
    if len(failures) == before:
        print(
            "ok: incremental re-index bit-identical with zero frontend calls, "
            "touch-one re-fronts exactly one unit"
        )


def check_nearest(failures: list[str]) -> None:
    import json
    import threading
    import urllib.request

    from repro.metricindex import MetricIndex
    from repro.serve.daemon import ServeDaemon
    from repro.workflow.comparer import nearest_brute_force

    app, k = "babelstream-fortran", 3
    spec = MetricSpec("Tsem")
    codebases = index_app(app)

    clear_ted_cache()
    index = MetricIndex.build(app, codebases, spec)
    per_model = {}
    for name, cb in codebases.items():
        others = [c for m, c in codebases.items() if m != name]
        brute = nearest_brute_force(cb, others, spec)[:k]
        via_index = index.query(cb, codebases, k).neighbors
        if via_index != brute:
            failures.append(f"nearest: index answer for {app}/{name} differs from brute scan")
        per_model[name] = [{"model": m, "divergence": d} for d, m in brute]

    daemon = ServeDaemon(DistanceEngine(), port=0, warm=[app], quiet=True)
    thread = threading.Thread(target=daemon.run, daemon=True)
    thread.start()
    if not daemon.ready.wait(120):
        failures.append("nearest: serve daemon did not become ready")
        return
    before = len(failures)
    try:
        for name, want in per_model.items():
            for extra in ("", "&brute=1"):
                url = (
                    f"http://127.0.0.1:{daemon.port}/v1/nearest"
                    f"?app={app}&model={name}&k={k}{extra}"
                )
                with urllib.request.urlopen(url, timeout=60) as resp:
                    payload = json.loads(resp.read())
                if payload["neighbors"] != want:
                    failures.append(
                        f"nearest: /v1/nearest{extra or ' (index mode)'} for "
                        f"{app}/{name} differs from brute scan"
                    )
    finally:
        daemon.stop()
        thread.join(timeout=30)
    if len(failures) == before:
        print(
            f"ok: nearest top-{k} bit-identical across index, brute scan, "
            "and /v1/nearest (both modes)"
        )


def main() -> int:
    cbs = index_app("tealeaf", coverage=True)
    names = list(cbs)[:N_MODELS]
    codebases = [cbs[m] for m in names]
    print(f"workload: tealeaf[{', '.join(names)}] under {SPEC.name}")

    failures = []
    serial = build(codebases, DistanceEngine(jobs=1))
    parallel = build(codebases, DistanceEngine(jobs=2))
    if np.array_equal(serial, parallel):
        print("ok: parallel matrix bit-identical to serial")
    else:
        failures.append("parallel (jobs=2) matrix differs from serial")

    prev = set_oracle(BruteForceOracle())
    try:
        no_cascade = build(codebases, DistanceEngine(jobs=1))
    finally:
        set_oracle(prev)
    if np.array_equal(serial, no_cascade):
        print("ok: cascade-off matrix bit-identical to cascade-on")
    else:
        failures.append("cascade-off matrix differs from the cascade-on serial run")

    with tempfile.TemporaryDirectory(prefix="svc-det-") as tmp:
        cache_dir = Path(tmp) / "ted-cache"
        build(codebases, DistanceEngine(cache=TedCacheStore(cache_dir)))  # populate
        with obs.collect() as col:
            cached = build(codebases, DistanceEngine(cache=TedCacheStore(cache_dir)))
        if col.counters.get("ted.zs.calls", 0) != 0:
            failures.append(
                f"cache round-trip re-ran the DP ({col.counters['ted.zs.calls']:g} ZS calls)"
            )
        if np.array_equal(serial, cached):
            print("ok: cache round-trip matrix bit-identical, zero ZS calls")
        else:
            failures.append("cache round-trip matrix differs from direct computation")

    check_resume(codebases, serial, failures)
    check_rows(codebases, serial, failures)
    check_incremental(failures)
    check_nearest(failures)

    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    if not failures:
        print("PASS: determinism gate clean")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
