"""One benchmark pass: a fresh process that runs one paper workload.

``run.py`` launches this file once per pass::

    python3 bench_e2e/workloads.py --workload tealeaf-cluster --seed 3 \
        --root ROOT --out OUT.json [--trace | --setup-only] [--models a,b]

The pass indexes into ``ROOT`` (unit artifacts and the TED disk cache
share it, as with ``silvervale --cache-dir ROOT``), drives the same public
functions the CLI subcommand calls, serially, and writes one JSON record:
when the pass reached its first timed call (``t0``, ``time.monotonic`` —
system-wide on Linux, so the parent can subtract its own launch time),
the wall seconds of the timed region, peak RSS, the outputs in canonical
model order and, with ``--trace``, the per-layer numbers of
:mod:`layers`.

The seed only permutes the order in which models are handed to the
program; outputs are mapped back to the registry order before they are
compared, bit for bit, with ``reference.json`` (:func:`count_failures`).
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import math
import random
import resource
import sys
import time
from pathlib import Path

#: workload -> corpus app it runs on (``corpus-index`` covers every app)
APPS = {"tealeaf-cluster": "tealeaf", "babelstream-heatmap": "babelstream"}
CORPUS_APPS = ("babelstream", "babelstream-fortran", "minibude", "tealeaf", "cloverleaf")
WORKLOADS = ("tealeaf-cluster", "babelstream-heatmap", "corpus-index")
HEATMAP_BASELINE = "serial"

REFERENCE = Path(__file__).with_name("reference.json")


def canonical_models(workload: str) -> list:
    """Registry-ordered inputs: model names, or ``[app, model]`` pairs for
    the corpus-wide index."""
    from repro.corpus import app_models

    if workload == "corpus-index":
        return [[app, m] for app in CORPUS_APPS for m in app_models(app)]
    return app_models(APPS[workload])


def permuted(items: list, seed: int) -> list:
    """The seed's order of ``items`` (the only thing a seed changes)."""
    order = list(items)
    random.Random(seed).shuffle(order)
    return order


def fhex(x: float) -> str:
    return float(x).hex()


# ---------------------------------------------------------------------------
# one function per workload: the CLI subcommand bodies, with an explicit cache root
# ---------------------------------------------------------------------------


def _engine(root: Path):
    from repro.cache import TedCacheStore
    from repro.distance.engine import DistanceEngine

    return DistanceEngine(jobs=1, cache=TedCacheStore(root))


def run_cluster(order: list, root: Path) -> tuple[dict, dict]:
    """``silvervale cluster tealeaf -m Tsem --cache-dir ROOT``."""
    from repro.analysis.cluster import cluster_models
    from repro.corpus import index_app
    from repro.metricindex import PairPinner
    from repro.viz.ascii import ascii_dendrogram
    from repro.workflow.comparer import divergence_matrix, parse_metric
    from repro.workflow.unitstore import UnitArtifactStore

    spec = parse_metric("Tsem")
    cbs = index_app(
        APPS["tealeaf-cluster"], order, coverage=spec.coverage, artifacts=UnitArtifactStore(root)
    )
    names = list(cbs)
    # cluster_codebases is exactly divergence_matrix + cluster_models;
    # calling the two apart keeps the matrix for the reference check
    matrix = divergence_matrix(
        [cbs[m] for m in names], spec, engine=_engine(root), index=PairPinner(spec)
    )
    ascii_dendrogram(cluster_models(matrix, names))
    pos = {m: i for i, m in enumerate(names)}
    canon = sorted(names, key=canonical_models("tealeaf-cluster").index)
    cells = {}
    for a in range(len(canon)):
        for b in range(a + 1, len(canon)):
            i, j = pos[canon[a]], pos[canon[b]]
            cells[f"{canon[a]}|{canon[b]}"] = [fhex(matrix[i, j]), fhex(matrix[j, i])]
    return {"cells": cells}, cbs


def run_heatmap(order: list, root: Path) -> tuple[dict, dict]:
    """``silvervale heatmap babelstream --cache-dir ROOT`` (baseline serial)."""
    from repro.analysis.heatmap import HEATMAP_SPECS, divergence_heatmap
    from repro.corpus import index_app
    from repro.viz.ascii import ascii_heatmap
    from repro.workflow.unitstore import UnitArtifactStore

    cbs = index_app(
        APPS["babelstream-heatmap"], order, coverage=True, artifacts=UnitArtifactStore(root)
    )
    models = [cb for m, cb in cbs.items() if m != HEATMAP_BASELINE]
    data = divergence_heatmap(cbs[HEATMAP_BASELINE], models, HEATMAP_SPECS, engine=_engine(root))
    ascii_heatmap(data)
    cells = {}
    for r, row in enumerate(data.row_labels):
        for c, col in enumerate(data.col_labels):
            cells[f"{row}|{col}"] = [fhex(data.values[r, c])]
    return {"cells": cells}, cbs


def run_index(order: list, root: Path) -> tuple[None, dict]:
    """The incremental index every ``silvervale`` workload subcommand runs
    first (``index_model`` per port, with coverage). The ``index``
    subcommand's Codebase DB export is left out: it is one more serde
    write per port, not part of the shared path."""
    from repro.corpus import index_model
    from repro.workflow.unitstore import UnitArtifactStore

    artifacts = UnitArtifactStore(root)
    cbs = {}
    for app, model in order:
        cbs[(app, model)] = index_model(app, model, coverage=True, artifacts=artifacts)
    return None, cbs


def unit_outputs(cbs: dict) -> dict:
    """Per-unit identity of an index, computed after timing: ``[structural
    hashes of T_src, T_src+pp, T_sem, T_sem+i and T_ir, coverage digest,
    run value, quarantined, coverage run failed]``."""
    from repro.trees.hashing import structural_hash

    units = {}
    for cb in cbs.values():
        app, model = cb.app, cb.model
        mask = cb.mask()
        run = cb.run_value
        for role in cb.roles():
            u = cb.units[role]
            trees = (u.t_src_pre, u.t_src_post, u.t_sem, u.t_sem_inlined, u.t_ir)
            units[f"{app}/{model}/{role}"] = [
                [structural_hash(t) if t is not None else None for t in trees],
                mask.digest() if mask is not None else None,
                fhex(run) if isinstance(run, float) else repr(run),
                bool(u.degraded),
                isinstance(run, str) and run.startswith("coverage run failed"),
            ]
    return {"units": units}


DRIVERS = {
    "tealeaf-cluster": run_cluster,
    "babelstream-heatmap": run_heatmap,
    "corpus-index": run_index,
}


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------


def _bad_cell(values: list, ref: list | None) -> bool:
    if ref is None or values != ref:
        return True
    return any(math.isnan(float.fromhex(v)) for v in values)


def count_failures(outputs: dict, reference: dict) -> tuple[int, int]:
    """``(attempted, failed)`` operations of one pass.

    An operation is a matrix/heatmap cell or an indexed unit. A cell fails
    when it is NaN or differs bitwise from the reference; a unit fails
    when any of its identities differs, or it was quarantined, or its
    coverage run failed.
    """
    if "cells" in outputs:
        ref = reference.get("cells", {})
        got = outputs["cells"]
        return len(got), sum(_bad_cell(v, ref.get(k)) for k, v in got.items())
    ref = reference.get("units", {})
    got = outputs["units"]
    # v[3], v[4]: quarantined, coverage run failed (see unit_outputs)
    failed = sum(v != ref.get(k) or v[3] or v[4] for k, v in got.items())
    return len(got), failed


def load_reference(workload: str) -> dict:
    """The stored outputs of ``workload`` ({} when none: every operation fails)."""
    if not REFERENCE.exists():
        return {}
    return json.loads(REFERENCE.read_text()).get(workload, {})


# ---------------------------------------------------------------------------
# pass entry point
# ---------------------------------------------------------------------------


def input_sizes(cbs: dict) -> dict:
    """The stated input size every ratio is taken over."""
    units = [u for cb in cbs.values() for u in cb.units.values()]
    sizes = {"models": len(cbs), "units": len(units)}
    for kind, attr in (("src", "t_src_pre"), ("sem", "t_sem"), ("ir", "t_ir")):
        trees = (getattr(u, attr) for u in units)
        sizes[f"nodes_{kind}"] = sum(t.size() for t in trees if t is not None)
    return sizes


#: every module the workload functions import, and every module ``layers`` wraps:
#: loaded before the first timed call, so importing the program counts as
#: set-up, not as pass time, in traced and untraced passes alike
PROGRAM_MODULES = (
    "repro.analysis.cluster",
    "repro.analysis.heatmap",
    "repro.cache",
    "repro.corpus",
    "repro.distance.engine",
    "repro.exec.ft_interpreter",
    "repro.metricindex",
    "repro.metrics.lloc",
    "repro.metrics.sloc",
    "repro.metrics.source_dist",
    "repro.metrics.treemetrics",
    "repro.trees.hashing",
    "repro.viz.ascii",
    "repro.workflow.comparer",
    "repro.workflow.unitstore",
)


def load_program() -> None:
    for name in PROGRAM_MODULES:
        importlib.import_module(name)


def run_pass(workload: str, order: list, root: Path, trace: bool) -> dict:
    """Run one pass in this process and return its record (no failures
    counted here: the record carries outputs for the caller to check)."""
    load_program()
    clock = None
    if trace:
        import layers
        from repro import obs

        clock = layers.LayerClock()
        clock.install()
        collect = obs.collect()
    else:
        collect = contextlib.nullcontext()
    with collect as col:
        t0 = time.monotonic()
        c0 = time.process_time()
        outputs, cbs = DRIVERS[workload](order, root)
        wall = time.monotonic() - t0
        cpu = time.process_time() - c0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record = {"t0": t0, "wall_s": wall, "cpu_s": cpu, "rss_mb": rss_mb}
    if clock is not None:
        clock.uninstall()
        record["layers"] = layers.layer_metrics(clock, col.counters, root, wall)
    record["outputs"] = outputs if outputs is not None else unit_outputs(cbs)
    record["inputs"] = input_sizes(cbs)
    return record


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--root", required=True, help="artifact root shared by passes of one run")
    ap.add_argument("--out", required=True, help="where to write the pass record (JSON)")
    ap.add_argument("--trace", action="store_true", help="attribute time and work per layer")
    ap.add_argument(
        "--setup-only", action="store_true",
        help="set up as a pass does, record when it would start timing, and stop",
    )
    ap.add_argument(
        "--models", help="comma-separated subset (smoke tests): model or app/model names"
    )
    args = ap.parse_args(argv)
    items = canonical_models(args.workload)
    if args.models:
        keep = args.models.split(",")
        items = [it for it in items if ("/".join(it) if isinstance(it, list) else it) in keep]
        if not items:
            ap.error(f"--models matches no input of {args.workload}")
    order = permuted(items, args.seed)
    if args.setup_only:
        load_program()
        record = {"t0": time.monotonic()}
    else:
        record = run_pass(args.workload, order, Path(args.root), args.trace)
    Path(args.out).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
