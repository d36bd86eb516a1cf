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
4. a cached run interrupted inside the exact-kernel phase, at half of the
   full run's kernels, flushes every kernel it finished; re-run on the
   same cache root, it produces the same matrix, reads every flushed entry
   back and runs exactly the full run's kernels minus the flushed ones —
   resume must neither lose work nor redo it;
5. an incremental re-index from unit artifacts yields a bit-identical
   Codebase DB with zero frontend invocations, and touching one source file
   re-fronts exactly that one unit;
6. nearest-neighbor answers agree bit-for-bit across all three surfaces:
   the library's ``nearest``, ``silvervale nearest --json`` and the serve
   daemon's ``/v1/nearest`` endpoint;
7. each model's ``divergence_row`` over the other models equals its
   ``divergence_matrix`` row bit for bit — both evaluate the same
   symmetric ``pair:`` demands.

Usage: PYTHONPATH=src python benchmarks/check_determinism.py
"""

from __future__ import annotations

import importlib
import sys
import tempfile
from pathlib import Path

import numpy as np

from repro import obs
from repro.cache import TedCacheStore
from repro.corpus import index_app
from repro.distance.bounds import BruteForceOracle, set_oracle
from repro.distance.engine import DistanceEngine
from repro.distance.ted import clear_ted_cache
from repro.corpus.registry import app_models, build_fs, get_spec
from repro.trees.hashing import cached_structural_hash
from repro.workflow.codebasedb import save_codebase_db
from repro.workflow.comparer import MetricSpec, divergence_matrix, divergence_row
from repro.workflow.indexer import index_codebase
from repro.workflow.unitstore import UnitArtifactStore

N_MODELS = 4
SPEC = MetricSpec("Tsem")


def build(codebases, engine: DistanceEngine) -> np.ndarray:
    clear_ted_cache()
    return divergence_matrix(codebases, SPEC, engine=engine)


def check_resume(codebases, serial: np.ndarray, failures: list[str]) -> None:
    clear_ted_cache()
    with obs.collect() as full_col:
        divergence_matrix(codebases, SPEC)  # uninterrupted control
    full_calls = full_col.counters.get("ted.zs.calls", 0)

    # Ctrl-C inside the kernel phase: the serial pool runs every kernel in
    # the chunk prepare hook, before the first task finishes
    tedmod = importlib.import_module("repro.distance.ted")
    kernel = tedmod.zhang_shasha_distance
    ran: list[tuple[str, str]] = []

    def interrupting(t1, t2):
        if len(ran) >= full_calls // 2:
            raise KeyboardInterrupt
        d = kernel(t1, t2)
        ran.append((cached_structural_hash(t1), cached_structural_hash(t2)))
        return d

    with tempfile.TemporaryDirectory(prefix="svc-det-resume-") as tmp:
        clear_ted_cache()
        tedmod.zhang_shasha_distance = interrupting
        try:
            divergence_matrix(codebases, SPEC, engine=DistanceEngine(cache=TedCacheStore(tmp)))
        except KeyboardInterrupt:
            pass
        else:
            failures.append("interrupting kernel ran to completion (gate bug)")
            return
        finally:
            tedmod.zhang_shasha_distance = kernel
        store = TedCacheStore(tmp)
        # cascade-pruned pairs land in the cache too, without a kernel
        flushed = store.stats()["entries"]
        kernels = sum(store.lookup(h1, h2) is not None for h1, h2 in ran)
        if not ran or kernels != len(ran):
            failures.append(
                f"interrupted run flushed {kernels} of its {len(ran)} finished kernels"
            )
            return

        clear_ted_cache()
        with obs.collect() as col:
            resumed = divergence_matrix(
                codebases, SPEC, engine=DistanceEngine(cache=TedCacheStore(tmp))
            )
        resumed_calls = col.counters.get("ted.zs.calls", 0)
        hits = col.counters.get("cache.disk.hit", 0)
        if not np.array_equal(serial, resumed):
            failures.append("resumed matrix differs from uninterrupted serial run")
        elif resumed_calls != full_calls - kernels or hits != flushed:
            failures.append(
                f"resume ran {resumed_calls:g} ZS calls and read {hits:g} entries; want "
                f"the full run's {full_calls:g} minus the {kernels} flushed kernels, "
                f"and all {flushed} flushed entries"
            )
        else:
            print(
                f"ok: interrupt after {kernels}/{full_calls:g} kernels ({flushed} "
                f"entries flushed) + resume from the cache bit-identical, re-ran "
                f"{resumed_calls:g} ZS calls"
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
    import contextlib
    import io
    import json
    import threading
    import urllib.request

    from repro.serve.daemon import ServeDaemon
    from repro.workflow.cli import main as cli_main
    from repro.workflow.comparer import nearest

    app, k = "babelstream-fortran", 3
    spec = MetricSpec("Tsem")
    codebases = index_app(app)

    clear_ted_cache()
    per_model = {}
    for name, cb in codebases.items():
        others = [c for m, c in codebases.items() if m != name]
        top = nearest(cb, others, spec)[:k]
        per_model[name] = [{"model": m, "divergence": d} for d, m in top]

    before = len(failures)
    with tempfile.TemporaryDirectory(prefix="svc-near-") as tmp:
        for name, want in per_model.items():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                argv = ["nearest", app, name, "-k", str(k), "--json"]
                rc = cli_main(argv + ["--cache-dir", tmp, "--no-ledger"])
            if rc != 0 or json.loads(out.getvalue())["neighbors"] != want:
                failures.append(f"nearest: silvervale nearest --json for {app}/{name} differs")

    daemon = ServeDaemon(DistanceEngine(), port=0, warm=[app], quiet=True)
    thread = threading.Thread(target=daemon.run, daemon=True)
    thread.start()
    if not daemon.ready.wait(120):
        failures.append("nearest: serve daemon did not become ready")
        return
    try:
        for name, want in per_model.items():
            url = f"http://127.0.0.1:{daemon.port}/v1/nearest?app={app}&model={name}&k={k}"
            with urllib.request.urlopen(url, timeout=60) as resp:
                payload = json.loads(resp.read())
            if payload["neighbors"] != want:
                failures.append(f"nearest: /v1/nearest for {app}/{name} differs")
    finally:
        daemon.stop()
        thread.join(timeout=30)
    if len(failures) == before:
        print(
            f"ok: nearest top-{k} bit-identical across the library, "
            "silvervale nearest --json and /v1/nearest"
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
