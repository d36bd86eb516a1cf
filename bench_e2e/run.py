"""End-to-end benchmark over three paper workloads, cold and warm.

Run from the repository root::

    python3 bench_e2e/run.py --workload tealeaf-cluster --seed 1 --seconds 4 --trace 0

``--workload all`` runs the three workloads one after another and prints
every metric of each, prefixed with the workload's name.

Workloads (why each was chosen is recorded in ``BENCHMARK.json``):

* ``tealeaf-cluster`` — ``silvervale cluster tealeaf -m Tsem``: 10 models,
  45 T_sem pairs; the paper's Fig. 4, dominated by the exact TED kernel.
* ``babelstream-heatmap`` — ``silvervale heatmap babelstream``: 9 models
  x 15 metric variants against serial; three tree kinds, masks, memo reuse
  and the cascade's pruning.
* ``corpus-index`` — index all 45 ports of the five apps with coverage:
  frontends, lowering, coverage runs and unit artifacts, no TED.

One run is a cold pass from an empty artifact root, then warm passes
against the root the cold pass filled, repeated until ``--seconds`` have
passed (at least one). Every pass is a fresh serial process
(``workloads.py``); the seed only permutes the order in which models are
handed to the program. Each pass's outputs are compared bit for bit with
``reference.json``.

``--trace 0`` reports the end-to-end metrics: ``cold_s`` (one cold pass),
``warm_s`` (median warm pass), ``setup_s`` (median of the seconds from
launching a process to its first timed call, over every pass and
``SETUP_LAUNCHES`` more launches that only set up),
``cold_rss_mb`` and ``warm_rss_mb`` (peak RSS, warm as a median).
``--trace 1`` runs one traced cold pass, then ``OVERHEAD_PAIRS`` untraced
and traced warm passes in turn on the root it filled, and reports
per-layer metrics (``cold.<m>`` / ``warm.<m>``, see ``layers.py``; warm
ones from the traced warm pass of median wall), the tracing overhead and
the input sizes (``input.<m>``).

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` (cells or units over all passes; ``failed / attempted`` is the
failed share) and ``metrics``. ``--write-reference`` instead records the
current program's outputs, over every model, as the new reference.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
#: warm passes per run at least, however long they take
MIN_WARM = 1
#: launches per run that only set up, so setup_s is a median of several
SETUP_LAUNCHES = 5
#: untraced/traced warm pass pairs, run in turn, behind warm.obs.overhead_s
OVERHEAD_PAIRS = 4
#: wall budget of one run: passes still running past it are killed
RUN_LIMIT_S = 170.0


class PassError(RuntimeError):
    """A pass crashed or ran out of the run's budget: the run has no result."""


class Runner:
    """Launches the passes of one run and checks their outputs."""

    def __init__(self, workload: str, seed: int, work: Path, src: Path, models: str | None = None):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.src = src
        self.models = models
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.reference = workloads.load_reference(workload)
        self.attempted = 0
        self.failed = 0
        self.passes = 0
        self.launches = 0

    def launch(self, root: Path, *flags: str) -> dict:
        """Run ``workloads.py`` once; its record, with ``setup_s`` added."""
        self.launches += 1
        out = self.work / f"launch-{self.launches}.json"
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(filter(None, [str(self.src), os.environ.get("PYTHONPATH")])),
            PYTHONHASHSEED="0",
            REPRO_CACHE_DIR=str(root),
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )
        cmd = [
            sys.executable,
            str(HERE / "workloads.py"),
            "--workload", self.workload,
            "--seed", str(self.seed),
            "--root", str(root),
            "--out", str(out),
            *flags,
        ]
        if self.models:
            cmd += ["--models", self.models]
        budget = self.deadline - time.monotonic()
        if budget <= 0:
            raise PassError("run budget exhausted")
        launched = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=budget)
        except subprocess.TimeoutExpired as e:
            raise PassError(f"launch {self.launches} exceeded the run budget") from e
        if proc.returncode != 0:
            raise PassError(f"launch {self.launches} exited with {proc.returncode}")
        rec = json.loads(out.read_text())
        rec["setup_s"] = rec["t0"] - launched
        return rec

    def run_pass(self, root: Path, trace: bool = False) -> dict:
        """One pass, its outputs checked against the reference."""
        self.passes += 1
        rec = self.launch(root, *(["--trace"] if trace else []))
        attempted, failed = workloads.count_failures(rec["outputs"], self.reference)
        self.attempted += attempted
        self.failed += failed
        rec["attempted"] = attempted
        print(
            f"bench_e2e: pass {self.passes}{' traced' if trace else ''}: "
            f"{rec['wall_s']:.3f} s (cpu {rec['cpu_s']:.3f} s), setup {rec['setup_s']:.3f} s, "
            f"{rec['rss_mb']:.0f} MB, {failed}/{attempted} failed",
            file=sys.stderr,
        )
        return rec

    def end_to_end(self, seconds: float) -> tuple[dict, dict]:
        root = self.work / "root"
        cold = self.run_pass(root)
        warm = []
        start = time.monotonic()
        while len(warm) < MIN_WARM or time.monotonic() - start < seconds:
            warm.append(self.run_pass(root))
        setups = [p["setup_s"] for p in [cold, *warm]]
        setups += [self.launch(root, "--setup-only")["setup_s"] for _ in range(SETUP_LAUNCHES)]
        med = statistics.median
        return {
            "cold_s": cold["wall_s"],
            "warm_s": med(p["wall_s"] for p in warm),
            "setup_s": med(setups),
            "cold_rss_mb": cold["rss_mb"],
            "warm_rss_mb": med(p["rss_mb"] for p in warm),
        }, cold

    def per_layer(self) -> tuple[dict, dict]:
        """A traced cold pass, then pairs of an untraced and a traced warm
        pass on one root, each pair in the other order than the last, so
        host drift and order effects cancel in the median overhead. Cold
        passes are too long to pair within the run's budget: no cold
        overhead is reported."""
        root = self.work / "root"
        cold = self.run_pass(root, trace=True)
        warm, overhead = [], []
        for k in range(OVERHEAD_PAIRS):
            if k % 2:
                warm.append(self.run_pass(root, trace=True))
                plain = self.run_pass(root)
            else:
                plain = self.run_pass(root)
                warm.append(self.run_pass(root, trace=True))
            overhead.append(warm[-1]["wall_s"] - plain["wall_s"])
        warm.sort(key=lambda p: p["wall_s"])
        metrics = {}
        for phase, rec in (("cold", cold), ("warm", warm[len(warm) // 2])):
            for name, value in rec["layers"].items():
                metrics[f"{phase}.{name}"] = value
        metrics["warm.obs.overhead_s"] = statistics.median(overhead)
        return metrics, cold


def input_metrics(cold: dict) -> dict:
    sizes = {f"input.{k}": v for k, v in cold["inputs"].items()}
    sizes["input.cells"] = cold["attempted"]
    return sizes


def write_reference(runner: Runner) -> None:
    rec = runner.run_pass(runner.work / "root")
    path = workloads.REFERENCE
    data = json.loads(path.read_text()) if path.exists() else {}
    data[runner.workload] = rec["outputs"]
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {runner.workload} reference to {path}", file=sys.stderr)


def measure(workload: str, args: argparse.Namespace, src: Path) -> tuple[Runner, dict, dict]:
    """One run of ``workload`` in a fresh work directory (removed after)."""
    base = Path.cwd() / ".bench_e2e"
    work = base / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = Runner(workload, args.seed, work, src, args.models)
        if args.write_reference:
            write_reference(runner)
            return runner, {}, {}
        if args.trace:
            metrics, cold = runner.per_layer()
            metrics.update(input_metrics(cold))
        else:
            metrics, cold = runner.end_to_end(args.seconds)
        return runner, metrics, cold
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if base.is_dir() and not any(base.iterdir()):
            base.rmdir()


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="cold/warm end-to-end benchmark of paper workloads")
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=4.0, help="warm-phase measuring time")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--models", help="comma-separated model subset (smoke tests)")
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)
    if args.write_reference and args.models:
        ap.error("--write-reference records every model: drop --models")

    src = Path.cwd() / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print("bench_e2e: src/repro not found; run from the repository root", file=sys.stderr)
        return 2
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            runner, metrics, cold = measure(name, args, src)
        except PassError as e:
            print(f"bench_e2e: {name}: {e}", file=sys.stderr)
            return 1
        if args.write_reference:
            continue
        share = runner.failed / runner.attempted
        print(f"{name} seed={args.seed} trace={args.trace}: {runner.passes} passes")
        print("  inputs: " + " ".join(f"{k}={v}" for k, v in cold["inputs"].items()))
        for metric, value in metrics.items():
            print(f"  {metric:<28} {value:>14.6g} {units[metric]}")
        print(f"  {'failed_share':<28} {share:>14.6g} ({runner.failed}/{runner.attempted})")
        prefix = f"{name}." if len(names) > 1 else ""
        result["attempted"] += runner.attempted
        result["failed"] += runner.failed
        for metric, value in metrics.items():
            result["metrics"][prefix + metric] = {"value": value, "unit": units[metric]}
    if not args.write_reference:
        result["correct"] = result["failed"] == 0
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
