"""CI chaos gate for the fault-tolerant distance engine.

Computes the fault-free serial divergence matrix on a small fixed TeaLeaf
workload, then recomputes it in parallel while the ``REPRO_CHAOS`` hook
deterministically kills one worker and exception-bombs another — both at
injection points drawn from a seeded RNG so every CI run replays the same
faults. No deadline is configured: the pool sees the killed worker on its
pipe at once.

The gate: the chaos-run matrix must be ``np.array_equal`` to the fault-free
serial one (the determinism contract survives worker loss), each fault
must have fired exactly once (one worker death, one retry per fault), and
no chunk may have degraded to NaN. Results land in ``CHAOS_pr.json``.

Usage: PYTHONPATH=src python benchmarks/chaos_engine.py [--seed N] [--out CHAOS_pr.json]
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import time

import numpy as np

from repro import obs
from repro.obs import ledger as runledger
from repro.corpus import index_app
from repro.distance.engine import DistanceEngine
from repro.distance.ted import clear_ted_cache
from repro.workflow.comparer import MetricSpec, divergence_matrix

N_MODELS = 4
SPEC = MetricSpec("Tsem")

#: Extra attempts per chunk: more than the one each fault costs, so a run
#: that degrades a chunk shows a pool fault, not a tight budget.
RETRIES = 3

#: Fault classes injected, one seeded task index each.
FAULTS = ("kill", "exc")

COUNTER_KEYS = (
    "engine.chunks",
    "engine.retries",
    "engine.worker_deaths",
    "engine.chunks_failed",
)


def build(codebases, engine: DistanceEngine) -> tuple[np.ndarray, dict, float, dict]:
    clear_ted_cache()
    t0 = time.perf_counter()
    with obs.collect() as col:
        matrix = divergence_matrix(codebases, SPEC, engine=engine)
    wall = time.perf_counter() - t0
    return matrix, dict(col.counters), wall, obs.metrics_json(col)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=1, help="injection-point seed")
    parser.add_argument("--out", default="CHAOS_pr.json", help="result JSON path")
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
    n_tasks = N_MODELS * (N_MODELS - 1) // 2
    print(f"workload: tealeaf[{', '.join(names)}] under {SPEC.name} ({n_tasks} pair tasks)")

    baseline, _, base_wall, _ = build(codebases, DistanceEngine(jobs=1))
    print(f"fault-free serial baseline: {base_wall:.3f}s, checksum={baseline.sum():.6f}")

    # one injection point per fault class, at distinct seeded task indices
    rng = random.Random(args.seed)
    points = rng.sample(range(n_tasks), len(FAULTS))
    spec = ",".join(f"{m}@{i}" for m, i in zip(FAULTS, points))
    print(f"chaos plan (seed {args.seed}): {spec}")

    os.environ["REPRO_CHAOS"] = spec
    try:
        chaotic, counters, chaos_wall, chaos_metrics = build(
            codebases, DistanceEngine(jobs=2, chunk_size=1, retries=RETRIES)
        )
    finally:
        os.environ.pop("REPRO_CHAOS", None)

    fault_counters = {k: counters.get(k, 0) for k in COUNTER_KEYS}
    print(
        f"chaos run: {chaos_wall:.3f}s  "
        + "  ".join(f"{k}={fault_counters[k]:g}" for k in COUNTER_KEYS)
    )

    failures = []
    if not np.array_equal(baseline, chaotic):
        failures.append("chaos-run matrix differs from fault-free serial baseline")
    else:
        print("ok: chaos-run matrix bit-identical to fault-free serial")
    if np.isnan(chaotic).any():
        failures.append("chaos-run matrix contains NaN (a chunk degraded)")
    if fault_counters["engine.chunks_failed"]:
        failures.append(f"{fault_counters['engine.chunks_failed']:g} chunks exhausted retries")
    if fault_counters["engine.retries"] != len(FAULTS):
        failures.append(
            f"{fault_counters['engine.retries']:g} retries recorded (want {len(FAULTS)}, "
            "one per injected fault)"
        )
    if fault_counters["engine.worker_deaths"] != 1:
        failures.append(
            f"{fault_counters['engine.worker_deaths']:g} worker deaths recorded (want 1)"
        )

    report = {
        "workload": {"app": "tealeaf", "models": names, "spec": SPEC.name},
        "seed": args.seed,
        "chaos": spec,
        "retries": RETRIES,
        "baseline_wall_s": base_wall,
        "chaos_wall_s": chaos_wall,
        "counters": fault_counters,
        "matrix_checksum": float(baseline.sum()),
        "failures": failures,
        "metrics": chaos_metrics,
    }
    runledger.write_harness_artifact(args.out, "chaos", report)
    runledger.record_harness_run(
        args.ledger_dir, "chaos", None, report, duration_s=time.perf_counter() - t_start
    )
    print(f"wrote {args.out}")

    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    if not failures:
        print("PASS: matrix survived kill+exc injection bit-identically")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
