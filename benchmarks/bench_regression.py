"""CI bench-regression harness for the distance engine and the indexer.

Runs one small, fixed TED workload (a TeaLeaf model subset under T_sem)
three ways — cold serial, cold parallel (``jobs=2``) and warm-from-disk —
and writes wall times plus the relevant counters to ``BENCH_pr.json``.
The same models are also indexed twice against a fresh unit-artifact root
(cold, then warm) to time incremental re-indexing.

The hard gates: the warm-cache TED run must be strictly faster than the
cold serial run AND perform zero Zhang–Shasha evaluations; every run's
matrix checksum must match cold-serial's; the warm re-index must invoke
zero frontends and take no longer than the cold index. Everything else is
recorded for the PR artifact, not asserted, because shared CI runners
make cross-process timing comparisons (serial vs parallel) too noisy to
fail a build on.

Usage: PYTHONPATH=src python benchmarks/bench_regression.py [--out BENCH_pr.json]
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from pathlib import Path

from repro import obs
from repro.obs import ledger as runledger
from repro.cache import TedCacheStore
from repro.corpus import index_app
from repro.corpus.registry import app_models, build_fs, get_spec
from repro.distance.engine import DistanceEngine
from repro.distance.ted import clear_ted_cache
from repro.workflow.comparer import MetricSpec, divergence_matrix
from repro.workflow.indexer import index_codebase
from repro.workflow.unitstore import UnitArtifactStore

#: Fixed workload: first N TeaLeaf models, semantic divergence. Small enough
#: for CI, big enough that the DP dominates and caching is measurable.
N_MODELS = 4
SPEC = MetricSpec("Tsem")

COUNTER_KEYS = (
    "ted.pairs",
    "ted.zs.calls",
    "zs.dp_cells",
    "zs.swept_cells",
    "ted.pruned.hash",
    "zs.cross_pairs",
    "cache.disk.hit",
    "cache.disk.miss",
    "engine.chunks",
    "engine.retries",
)


def run_case(name: str, codebases, engine: DistanceEngine) -> dict:
    clear_ted_cache()  # in-process memo off: isolate the disk-cache effect
    t0 = time.perf_counter()
    with obs.collect() as col:
        matrix = divergence_matrix(codebases, SPEC, engine=engine)
    wall = time.perf_counter() - t0
    counters = {k: col.counters.get(k, 0) for k in COUNTER_KEYS}
    print(f"{name:14s} {wall:7.3f}s  " + "  ".join(f"{k}={counters[k]:g}" for k in COUNTER_KEYS))
    return {
        "name": name,
        "wall_s": wall,
        "counters": counters,
        "checksum": float(matrix.sum()),
        "metrics": obs.metrics_json(col),
    }


def run_index_case(name: str, store) -> dict:
    t0 = time.perf_counter()
    with obs.collect() as col:
        for model in app_models("tealeaf")[:N_MODELS]:
            index_codebase(
                get_spec("tealeaf", model),
                build_fs("tealeaf", model),
                run_coverage=True,
                artifacts=store,
            )
    wall = time.perf_counter() - t0
    counters = {
        k: col.counters.get(k, 0)
        for k in ("index.units", "index.unit.hit", "index.unit.miss")
    }
    print(f"{name:14s} {wall:7.3f}s  " + "  ".join(f"{k}={v:g}" for k, v in counters.items()))
    return {"name": name, "wall_s": wall, "counters": counters, "metrics": obs.metrics_json(col)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_pr.json", help="result JSON path")
    parser.add_argument(
        "--ledger-dir",
        metavar="DIR",
        help="also record this run as an obs run-ledger snapshot under DIR",
    )
    args = parser.parse_args(argv)
    t_start = time.perf_counter()

    cbs = index_app("tealeaf", coverage=True)
    names = list(cbs)[:N_MODELS]
    codebases = [cbs[m] for m in names]
    print(f"workload: tealeaf[{', '.join(names)}] under {SPEC.name}\n")

    results = []
    with tempfile.TemporaryDirectory(prefix="svc-bench-") as tmp:
        cache_dir = Path(tmp) / "ted-cache"
        results.append(run_case("cold-serial", codebases, DistanceEngine(jobs=1)))
        results.append(run_case("cold-jobs2", codebases, DistanceEngine(jobs=2)))
        # populate, then measure warm (fresh store handle, no pending buffers)
        clear_ted_cache()
        divergence_matrix(codebases, SPEC, engine=DistanceEngine(cache=TedCacheStore(cache_dir)))
        results.append(
            run_case("warm-cache", codebases, DistanceEngine(cache=TedCacheStore(cache_dir)))
        )

    print()
    index_results = []
    with tempfile.TemporaryDirectory(prefix="svc-bench-idx-") as tmp:
        store = UnitArtifactStore(Path(tmp) / "artifacts")
        index_results.append(run_index_case("index-cold", store))
        index_results.append(run_index_case("index-warm", store))

    by_name = {r["name"]: r for r in results}
    report = {
        "workload": {"app": "tealeaf", "models": names, "spec": SPEC.name},
        "runs": results,
        "index_runs": index_results,
    }
    runledger.write_harness_artifact(args.out, "bench", report)
    runledger.record_harness_run(
        args.ledger_dir, "bench", None, report, duration_s=time.perf_counter() - t_start
    )
    print(f"\nwrote {args.out}")

    failures = []
    warm, cold = by_name["warm-cache"], by_name["cold-serial"]
    if warm["counters"]["ted.zs.calls"] != 0:
        failures.append(
            f"warm run performed {warm['counters']['ted.zs.calls']:g} ZS evaluations (want 0)"
        )
    if not warm["wall_s"] < cold["wall_s"]:
        failures.append(
            f"warm cache not faster than cold serial "
            f"({warm['wall_s']:.3f}s vs {cold['wall_s']:.3f}s)"
        )
    for r in results:
        if r["checksum"] != cold["checksum"]:
            failures.append(f"{r['name']} checksum diverged from cold-serial")

    idx_cold, idx_warm = index_results
    if idx_warm["counters"]["index.units"] != 0:
        failures.append(
            f"warm re-index invoked frontends for {idx_warm['counters']['index.units']:g} units"
        )
    if idx_warm["wall_s"] > idx_cold["wall_s"]:
        failures.append(
            f"warm re-index slower than cold index "
            f"({idx_warm['wall_s']:.3f}s vs {idx_cold['wall_s']:.3f}s)"
        )

    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    if not failures:
        speedup = cold["wall_s"] / warm["wall_s"]
        idx_speedup = idx_cold["wall_s"] / idx_warm["wall_s"]
        print(f"PASS: warm cache {speedup:.1f}x faster than cold serial, 0 ZS calls")
        print(f"PASS: warm re-index {idx_speedup:.1f}x faster than cold, 0 frontend calls")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
