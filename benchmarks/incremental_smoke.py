"""CI smoke gate for incremental indexing.

Indexes a fixed corpus slice (TeaLeaf + Fortran BabelStream models) four
ways against one shared artifact root:

1. **cold** — empty root: every unit is a miss and runs the frontends;
2. **warm** — same sources: every unit must be an artifact hit, with *zero*
   frontend invocations (``index.units`` stays 0) and a bit-identical
   Codebase DB;
3. **touch-one** — one main file gets a trailing comment: exactly that one
   unit re-fronts, every other unit's DB stays byte-identical, and the
   touched unit's *representations* are unchanged (a comment is trivia to
   every tree and line summary; only the raw source stored in the DB moves);
4. **corrupt-one** — one untouched unit's artifact is rewritten with a
   valid container, schema and key but a misshapen tree section, and the
   original sources are indexed again: exactly that unit re-fronts, it is
   counted once as ``index.unit.invalid`` with exactly one
   ``index/artifact-invalid`` diagnostic, and every DB is byte-identical to
   the cold pass.

Wall times and counters land in ``INCR_pr.json`` for the PR artifact; the
four invariants above are the hard gate.

Usage: PYTHONPATH=src python benchmarks/incremental_smoke.py [--out INCR_pr.json]
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from pathlib import Path

from repro import diag, obs
from repro.obs import ledger as runledger
from repro.corpus.registry import app_models, build_fs, get_spec
from repro.serde import read_blob, write_blob
from repro.workflow.codebasedb import _unit_to_obj, load_codebase_db, save_codebase_db
from repro.workflow.indexer import index_codebase
from repro.workflow.unitstore import UnitArtifactStore, unit_key

#: (app, model) slice: every TeaLeaf port plus two Fortran ports, so both
#: frontends and the coverage-replay path are exercised.
def workload() -> list[tuple[str, str]]:
    pairs = [("tealeaf", m) for m in app_models("tealeaf")[:4]]
    pairs += [("babelstream-fortran", m) for m in app_models("babelstream-fortran")[:2]]
    return pairs


COMMENT = {"cpp": "// touched by incremental smoke\n", "fortran": "! touched by incremental smoke\n"}


def run_pass(name: str, store, touched: tuple[str, str] | None = None) -> dict:
    """Index the whole workload once; return wall time, counters and DBs."""
    t0 = time.perf_counter()
    dbs = {}
    with obs.collect() as col, diag.capture() as sink:
        for app, model in workload():
            spec = get_spec(app, model)
            fs = build_fs(app, model)
            if touched == (app, model):
                main = spec.units["main"]
                fs.files[main] = fs.files[main] + COMMENT[spec.lang]
            cb = index_codebase(spec, fs, run_coverage=True, artifacts=store)
            with tempfile.NamedTemporaryFile(suffix=".svdb", delete=False) as tmp:
                save_codebase_db(cb, tmp.name)
                dbs[f"{app}/{model}"] = Path(tmp.name).read_bytes()
                Path(tmp.name).unlink()
    wall = time.perf_counter() - t0
    counters = {
        k: col.counters.get(k, 0)
        for k in (
            "index.units",
            "index.unit.hit",
            "index.unit.miss",
            "index.unit.saved",
            "index.unit.invalid",
        )
    }
    print(f"{name:11s} {wall:7.3f}s  " + "  ".join(f"{k}={v:g}" for k, v in counters.items()))
    return {
        "name": name,
        "wall_s": wall,
        "counters": counters,
        "diagnostics": sink.by_code(),
        "dbs": dbs,
        "metrics": obs.metrics_json(col),
    }


def corrupt_tree_section(store, app: str, model: str) -> None:
    """Truncate the T_sem columns of one unit's artifact, leaving its
    container, schema, keyspec and key valid."""
    spec, fs = get_spec(app, model), build_fs(app, model)
    key = unit_key(spec, fs, "main", spec.units["main"], recover=True, coverage=True)
    path = store.path_for(key)
    payload = read_blob(path)
    tree = payload["value"]["unit"]["t_sem"]
    tree[1] = tree[1][:-1]
    write_blob(path, payload, atomic=True)


def _same_representations(a_bytes: bytes, b_bytes: bytes) -> bool:
    """Compare everything in two DBs except the raw stored sources."""

    def summarise(raw: bytes):
        with tempfile.NamedTemporaryFile(suffix=".svdb") as tmp:
            Path(tmp.name).write_bytes(raw)
            cb = load_codebase_db(tmp.name)
        return (
            {role: _unit_to_obj(u) for role, u in cb.units.items()},
            cb.coverage.hits if cb.coverage is not None else None,
            cb.run_value,
        )

    return summarise(a_bytes) == summarise(b_bytes)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="INCR_pr.json", help="result JSON path")
    parser.add_argument(
        "--ledger-dir",
        metavar="DIR",
        help="also record this run as an obs run-ledger snapshot under DIR",
    )
    args = parser.parse_args(argv)
    t_start = time.perf_counter()

    n_units = len(workload())
    print(f"workload: {n_units} units — " + ", ".join(f"{a}/{m}" for a, m in workload()) + "\n")

    failures: list[str] = []
    with tempfile.TemporaryDirectory(prefix="svc-incr-") as tmp:
        store = UnitArtifactStore(Path(tmp) / "artifacts")
        cold = run_pass("cold", store)
        warm = run_pass("warm", store)
        touched = run_pass("touch-one", store, touched=workload()[0])
        corrupt_tree_section(store, *workload()[1])
        corrupt = run_pass("corrupt-one", store)

        c, w, t = cold["counters"], warm["counters"], touched["counters"]
        if c["index.unit.miss"] != n_units or c["index.units"] != n_units:
            failures.append(f"cold pass fronted {c['index.units']:g}/{n_units} units")
        if w["index.unit.hit"] != n_units:
            failures.append(f"warm pass hit {w['index.unit.hit']:g}/{n_units} artifacts")
        if w["index.units"] != 0:
            failures.append(f"warm pass invoked frontends for {w['index.units']:g} units (want 0)")
        if t["index.units"] != 1 or t["index.unit.miss"] != 1:
            failures.append(
                f"touch-one pass re-fronted {t['index.units']:g} units (want exactly 1)"
            )
        if t["index.unit.hit"] != n_units - 1:
            failures.append(f"touch-one pass hit {t['index.unit.hit']:g}/{n_units - 1} artifacts")
        touched_key = "{}/{}".format(*workload()[0])
        for key in cold["dbs"]:
            if warm["dbs"][key] != cold["dbs"][key]:
                failures.append(f"warm DB for {key} not bit-identical to cold")
            if key != touched_key and touched["dbs"][key] != cold["dbs"][key]:
                failures.append(f"touch-one DB for untouched {key} drifted")
        if not _same_representations(cold["dbs"][touched_key], touched["dbs"][touched_key]):
            failures.append(
                f"touch-one representations for {touched_key} drifted (comment should be trivia)"
            )
        x = corrupt["counters"]
        if x["index.units"] != 1 or x["index.unit.miss"] != 1:
            failures.append(
                f"corrupt-one pass re-fronted {x['index.units']:g} units (want exactly 1)"
            )
        if x["index.unit.invalid"] != 1:
            failures.append(
                f"corrupt-one pass counted {x['index.unit.invalid']:g} invalid (want 1)"
            )
        invalid_diags = corrupt["diagnostics"].get("index/artifact-invalid", 0)
        if invalid_diags != 1:
            failures.append(
                f"corrupt-one pass emitted {invalid_diags} index/artifact-invalid diagnostics"
                " (want 1)"
            )
        for key in cold["dbs"]:
            if corrupt["dbs"][key] != cold["dbs"][key]:
                failures.append(f"corrupt-one DB for {key} not bit-identical to cold")

    report = {
        "workload": [f"{a}/{m}" for a, m in workload()],
        "runs": [
            {k: v for k, v in r.items() if k != "dbs"} for r in (cold, warm, touched, corrupt)
        ],
    }
    runledger.write_harness_artifact(args.out, "incr", report)
    runledger.record_harness_run(
        args.ledger_dir, "incr", None, report, duration_s=time.perf_counter() - t_start
    )
    print(f"\nwrote {args.out}")

    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    if not failures:
        speedup = cold["wall_s"] / warm["wall_s"] if warm["wall_s"] else float("inf")
        print(f"PASS: warm re-index {speedup:.1f}x faster, zero frontend invocations")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
