#!/usr/bin/env python
"""Deterministic mutation fuzzer for the MiniC++ / MiniFortran frontends.

Takes every corpus main source as a seed, applies a small number of
seeded random mutations (span deletion, span duplication, truncation,
punctuation injection), and drives the full indexing pipeline — tolerant
lex → recovering parse → sema → lowering → all five trees — over the
damaged text. The contract under test:

* :class:`repro.util.errors.ReproError` is the *only* exception the
  pipeline may raise (the workflow quarantine handles it); anything else
  (AssertionError, RecursionError, IndexError, ...) is a frontend crash
  and fails the run,
* every crash-free iteration whose trees are small enough is additionally
  pushed through ``tree_distance`` against the unmutated unit, so the
  error-node TED contract is exercised too.

Fully deterministic for a given ``--seed``: CI runs
``fuzz_frontends.py --iterations 200 --seed 1``, archives the JSON
summary (``--out``) as a job artifact and fails when its ``clean``,
``handled_errors``, ``ted_checks`` or ``diagnostics_by_code`` differ from
``benchmarks/fuzz_seed1.json``; a change that moves them commits the new
values there. Every crash this harness has found is fixed and pinned by
a named regression test in ``tests/integration/test_fuzz_regressions.py``.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import diag, obs  # noqa: E402
from repro.obs import ledger as runledger  # noqa: E402
from repro.compiler import CompileOptions  # noqa: E402
from repro.corpus.registry import APPS, app_models, build_fs, get_spec  # noqa: E402
from repro.distance.ted import ted  # noqa: E402
from repro.util.errors import ReproError  # noqa: E402
from repro.workflow.indexer import index_cpp_unit, index_fortran_unit  # noqa: E402

#: Trees larger than this skip the TED cross-check (keeps 200 iterations
#: inside a CI smoke-job budget).
TED_NODE_LIMIT = 800

_PUNCT_POOL = "{}()<>;,&|!$*\"'="


def corpus_seeds() -> list[tuple[str, str, str, str]]:
    """Every corpus main source: (app, model, lang, path)."""
    seeds = []
    for app in APPS:
        for model in app_models(app):
            spec = get_spec(app, model)
            seeds.append((app, model, spec.lang, spec.units["main"]))
    return seeds


def mutate(text: str, rng: random.Random) -> str:
    """Apply 1–3 seeded mutations to the source text."""
    for _ in range(rng.randint(1, 3)):
        if not text:
            break
        op = rng.randrange(5)
        n = len(text)
        if op == 0:  # delete a span
            lo = rng.randrange(n)
            hi = min(n, lo + rng.randint(1, 80))
            text = text[:lo] + text[hi:]
        elif op == 1:  # duplicate a span
            lo = rng.randrange(n)
            hi = min(n, lo + rng.randint(1, 80))
            text = text[:hi] + text[lo:hi] + text[hi:]
        elif op == 2:  # truncate
            text = text[: rng.randrange(n)]
        elif op == 3:  # replace one char with hostile punctuation
            i = rng.randrange(n)
            text = text[:i] + rng.choice(_PUNCT_POOL) + text[i + 1 :]
        else:  # insert hostile punctuation
            i = rng.randrange(n + 1)
            text = text[:i] + rng.choice(_PUNCT_POOL) + text[i:]
    return text


def _tree_size(node) -> int:
    return 1 + sum(_tree_size(c) for c in node.children)


def index_mutant(app: str, model: str, lang: str, path: str, text: str):
    """Run the recovering index pipeline over one mutated source."""
    fs = build_fs(app, model)
    fs.add(path, text)  # overwrite the main file with the mutant
    if lang == "cpp":
        spec = get_spec(app, model)
        options = CompileOptions(dialect=spec.dialect, openmp=spec.openmp, name=spec.model)
        return index_cpp_unit(fs, "main", path, options, spec.defines, recover=True)
    return index_fortran_unit(fs, "main", path, recover=True)


def run(iterations: int, seed: int, ted_check: bool = True) -> dict:
    rng = random.Random(seed)
    seeds = corpus_seeds()

    # index the pristine units once for the TED cross-check
    pristine = {}
    for app, model, lang, path in seeds:
        try:
            pristine[(app, model)] = index_mutant(app, model, lang, path, build_fs(app, model).get(path).text)
        except ReproError:
            pristine[(app, model)] = None

    crashes: list[dict] = []
    handled = 0
    clean = 0
    ted_checks = 0
    diag_codes: dict[str, int] = {}
    for i in range(iterations):
        app, model, lang, path = seeds[rng.randrange(len(seeds))]
        text = mutate(build_fs(app, model).get(path).text, rng)
        with diag.capture() as sink:
            try:
                unit = index_mutant(app, model, lang, path, text)
            except ReproError:
                handled += 1
                unit = None
            except RecursionError as e:
                crashes.append(_crash_record(i, app, model, e, text))
                unit = None
            except Exception as e:  # noqa: BLE001 — the point of the harness
                crashes.append(_crash_record(i, app, model, e, text))
                unit = None
        for code, count in sink.by_code().items():
            diag_codes[code] = diag_codes.get(code, 0) + count
        if unit is None:
            continue
        clean += 1
        ref = pristine.get((app, model))
        if not ted_check or ref is None:
            continue
        for which in ("src", "sem", "ir"):
            a, b = ref.tree(which), unit.tree(which)
            if a is None or b is None:
                continue
            if _tree_size(a) > TED_NODE_LIMIT or _tree_size(b) > TED_NODE_LIMIT:
                continue
            try:
                d = ted(a, b).distance
                assert 0.0 <= d, f"negative TED {d} on {which}"
                ted_checks += 1
            except ReproError:
                handled += 1
            except Exception as e:  # noqa: BLE001
                crashes.append(_crash_record(i, app, model, e, text, stage=f"ted:{which}"))
    return {
        "iterations": iterations,
        "seed": seed,
        "clean": clean,
        "handled_errors": handled,
        "ted_checks": ted_checks,
        "diagnostics_by_code": dict(sorted(diag_codes.items())),
        "crashes": crashes,
    }


def _crash_record(i: int, app: str, model: str, exc: BaseException, text: str, stage: str = "index") -> dict:
    return {
        "iteration": i,
        "app": app,
        "model": model,
        "stage": stage,
        "exception": type(exc).__name__,
        "message": str(exc)[:500],
        "source_head": text[:400],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--iterations", type=int, default=200)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", metavar="FILE", help="write the JSON summary here")
    ap.add_argument(
        "--ledger-dir",
        metavar="DIR",
        help="also record this run as an obs run-ledger snapshot under DIR",
    )
    ap.add_argument(
        "--no-ted", action="store_true", help="skip the TED cross-check (faster)"
    )
    args = ap.parse_args(argv)
    t_start = time.perf_counter()
    # collect while fuzzing: the per-stage latency distributions over
    # hostile inputs ride along in the artifact's metrics section
    with obs.collect() as col:
        summary = run(args.iterations, args.seed, ted_check=not args.no_ted)
    summary["metrics"] = obs.metrics_json(col)
    if args.out:
        runledger.write_harness_artifact(args.out, "fuzz", summary)
    runledger.record_harness_run(
        args.ledger_dir, "fuzz", None, summary, duration_s=time.perf_counter() - t_start
    )
    n_crash = len(summary["crashes"])
    print(
        f"fuzz: {summary['iterations']} iterations (seed {summary['seed']}): "
        f"{summary['clean']} clean, {summary['handled_errors']} handled errors, "
        f"{summary['ted_checks']} TED cross-checks, {n_crash} crashes"
    )
    for code, count in summary["diagnostics_by_code"].items():
        print(f"  {code:<28}{count}")
    for c in summary["crashes"][:10]:
        print(
            f"CRASH @{c['iteration']} [{c['app']}/{c['model']} {c['stage']}] "
            f"{c['exception']}: {c['message'][:120]}"
        )
    return 1 if n_crash else 0


if __name__ == "__main__":
    sys.exit(main())
