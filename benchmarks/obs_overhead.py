"""CI gate: the observability layer must stay near-free when disabled.

The span/counter/histogram entry points are compiled into every hot path
of the pipeline (lexers, parsers, the TED DP, the pool), on the promise
that they cost almost nothing while no collector is installed. This
harness measures that promise directly:

* **instrumented** — the real disabled path: ``obs.span`` returns the
  shared no-op, ``obs.add``/``obs.observe`` bail on the contextvar check;
* **baseline** — the same workload with the ``repro.obs`` entry points
  monkeypatched to raw do-nothing functions, approximating a build with
  the instrumentation deleted. (Call sites resolve ``obs.span`` through
  the module attribute at call time, which is what makes the patch an
  honest stand-in.)

Both run the same fixed workload: index all ten TeaLeaf ports from scratch
and compute the serial port's semantic divergence from each of the other
nine, about 1 s per pass on a 2-vCPU host. The variants alternate pass by
pass: each pair runs one instrumented and one baseline pass
(``repro.obs`` is patched just before the baseline pass and restored just
after it), and the order flips every pair, so a loaded runner's slow spell
falls on both variants alike.
The run fails when the median of the per-pair ratios (instrumented /
baseline) exceeds ``1 + --threshold`` (default 5%).

Results land in ``OVERHEAD_pr.json`` (harness envelope, like the other
benchmark artifacts).

Usage: PYTHONPATH=src python benchmarks/obs_overhead.py [--repeats 30]
"""

from __future__ import annotations

import argparse
import gc
import statistics
import sys
import time

from repro import obs
from repro.obs import ledger as runledger
from repro.corpus.registry import app_models, build_fs, get_spec
from repro.distance.ted import clear_ted_cache
from repro.workflow.comparer import MetricSpec, divergence_row
from repro.workflow.indexer import index_codebase

#: TeaLeaf ports indexed per pass (all ten)
N_MODELS = 10
SPEC = MetricSpec("Tsem")


class _RawNoopSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return None

    def set(self, **attrs):
        return None

    @property
    def index(self):
        return -1


_RAW = _RawNoopSpan()


def _no_span(name, **attrs):
    return _RAW


def _no_metric(name, value=1.0):
    return None


def workload() -> dict[str, float]:
    """One fixed cold pass: index N models, then the first model's
    divergence from each of the others."""
    clear_ted_cache()
    models = app_models("tealeaf")[:N_MODELS]
    cbs = []
    for model in models:
        cbs.append(index_codebase(get_spec("tealeaf", model), build_fs("tealeaf", model)))
    return divergence_row(cbs[0], cbs[1:], SPEC)


def timed_pass(baseline: bool) -> tuple[float, dict[str, float]]:
    """``(wall seconds, result)`` of one workload pass; a baseline pass
    runs with the ``repro.obs`` entry points patched to raw no-ops."""
    gc.collect()  # every pass starts from the same collector state
    saved = {name: getattr(obs, name) for name in ("span", "add", "gauge", "observe")}
    if baseline:
        obs.span = _no_span
        obs.add = obs.gauge = obs.observe = _no_metric
    try:
        t0 = time.perf_counter()
        result = workload()
        return time.perf_counter() - t0, result
    finally:
        for name, fn in saved.items():
            setattr(obs, name, fn)


def measure(repeats: int) -> tuple[list[tuple[float, float]], list[dict[str, float]]]:
    """``repeats`` pairs of ``(instrumented, baseline)`` wall times, the
    two passes of a pair in alternating order, and every baseline result."""
    pairs, baseline_results = [], []
    for k in range(repeats):
        wall = {}
        for baseline in (False, True) if k % 2 == 0 else (True, False):
            wall[baseline], result = timed_pass(baseline)
            if baseline:
                baseline_results.append(result)
        pairs.append((wall[False], wall[True]))
    return pairs, baseline_results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=30, help="instrumented/baseline pass pairs")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.05,
        help="maximum tolerated fractional overhead (default: 0.05 = 5%%)",
    )
    parser.add_argument("--out", default="OVERHEAD_pr.json", help="result JSON path")
    parser.add_argument(
        "--ledger-dir",
        metavar="DIR",
        help="also record this run as an obs run-ledger snapshot under DIR",
    )
    args = parser.parse_args(argv)
    t_start = time.perf_counter()

    assert obs.current_collector() is None, "harness must run with no collector installed"
    expect = workload()  # warm imports and interned tables out of the timing

    pairs, baseline_results = measure(args.repeats)
    ratios = [inst / base for inst, base in pairs]
    overhead = statistics.median(ratios) - 1.0
    instrumented = statistics.median(inst for inst, _ in pairs)
    baseline = statistics.median(base for _, base in pairs)
    print(
        f"median baseline {baseline:.3f}s  instrumented {instrumented:.3f}s  "
        f"overhead {overhead * 100:+.2f}% (median of {len(pairs)} pair ratios, "
        f"threshold {args.threshold * 100:.0f}%)"
    )

    failures = []
    if any(got != expect for got in baseline_results):
        failures.append("workload result changed under patched no-ops (harness bug)")
    if overhead > args.threshold:
        failures.append(
            f"disabled-path overhead {overhead * 100:.2f}% exceeds "
            f"{args.threshold * 100:.0f}% budget"
        )

    report = {
        "workload": {"app": "tealeaf", "models": app_models("tealeaf")[:N_MODELS]},
        "repeats": args.repeats,
        "baseline_s": baseline,
        "instrumented_s": instrumented,
        "pair_ratios": ratios,
        "overhead_frac": overhead,
        "threshold_frac": args.threshold,
        "failures": failures,
    }
    runledger.write_harness_artifact(args.out, "overhead", report)
    runledger.record_harness_run(
        args.ledger_dir, "overhead", None, report, duration_s=time.perf_counter() - t_start
    )
    print(f"wrote {args.out}")

    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    if not failures:
        print(f"PASS: disabled observability costs {overhead * 100:+.2f}% on the fixed workload")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
