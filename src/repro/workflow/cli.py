"""``silvervale`` command-line interface.

Subcommands mirror the paper's workflow:

* ``index``   — index a corpus app/model into a Codebase DB file,
* ``compare`` — divergence of one model from a baseline under a metric,
* ``cluster`` — dendrogram of all models of an app under a metric,
* ``nearest`` — k nearest models by divergence (one sorted matrix row),
* ``heatmap`` — divergence-from-serial heatmap rows,
* ``phi``     — Φ table / cascade data from the performance model,
* ``stats``   — run a workload and dump spans / counters / cache stats,
* ``cache``   — inspect or clear the persistent TED cache,
* ``obs``     — run-ledger trend tools: ``history``, ``diff``, ``report``,
* ``serve``   — long-lived HTTP daemon serving the same analyses as JSON,
* ``apps``    — list corpus apps and models.

Every subcommand accepts ``--profile`` (print a nested span report, the
counter table and per-span latency percentiles after the run),
``--trace-out FILE`` (Chrome trace-event JSON — load in
``chrome://tracing`` / Perfetto; pool workers appear as their own pid
lanes) and ``--metrics-out FILE`` (flat metrics JSON the benchmark
harness diffs across PRs).

Run ledger: every workload subcommand (``index``, ``compare``,
``cluster``, ``heatmap``, ``figures``, ``stats``) records a metrics
snapshot into the ``obs`` namespace of the shared artifact root on
completion (``--no-ledger`` opts out); ``silvervale obs history`` tabulates
recent runs, ``obs diff prev last`` shows counter and latency deltas with
regression highlighting, and ``obs report`` summarises one run.

Matrix-sweeping subcommands additionally accept ``--jobs N`` (worker
processes for the distance engine; default serial; indexing always runs
in-process), ``--cache-dir DIR`` (persistent TED cache,
also settable via ``REPRO_CACHE_DIR``) and ``--no-cache`` (ignore any
configured cache for this run), plus ``--retries N`` (extra attempts for
a chunk whose task raised or whose worker died; the pool sees a dead
worker on its pipe at once). An interrupted run (Ctrl-C or SIGTERM)
kills its workers, flushes the TED cache, names the cache root and the
distances flushed on stderr, and exits 130; re-running with the same
cache resumes it.

Incremental indexing: subcommands that index (``index``, ``compare``,
``cluster``, ``heatmap``, ``figures``, ``stats``) persist per-unit index
artifacts in the shared artifact root (``--cache-dir`` / ``REPRO_CACHE_DIR``
/ ``.silvervale-cache``) and replay unchanged units from disk on the next
run — a warm re-index of an unchanged corpus runs zero frontend work.
``--no-incremental`` opts out; ``--strict`` implies a fresh index.

Error handling: indexing subcommands run with recovering frontends by
default — damaged units are quarantined, the run completes, and the
collected diagnostics are summarised on stderr (exit 0). ``--strict``
restores fail-fast behaviour: the first frontend error aborts the run with
exit 1.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from repro import diag, obs
from repro.analysis.cluster import cluster_codebases
from repro.analysis.heatmap import HEATMAP_SPECS, divergence_heatmap
from repro.cache import TedCacheStore
from repro.corpus import APPS, app_models, index_app, index_model
from repro.distance.engine import DistanceEngine
from repro.distance.ted import cache_stats
from repro.perfport.cascade import cascade
from repro.perfport.perfmodel import PerfModel
from repro.perfport.pp_metric import phi_table
from repro.obs import ledger as runledger
from repro.viz.ascii import (
    ascii_bars,
    ascii_counters,
    ascii_dendrogram,
    ascii_heatmap,
    ascii_hist_table,
    ascii_span_tree,
)
from repro.util.errors import ReproError, WorkflowError
from repro.artifacts import clear_namespaces, scan_namespaces
from repro.metricindex import PairPinner
from repro.workflow.codebasedb import save_codebase_db
from repro.workflow.comparer import (
    MetricSpec,
    divergence_matrix,
    divergence_row,
    nearest,
    parse_metric,
)
from repro.workflow.unitstore import UnitArtifactStore


def _metric_spec(name: str) -> MetricSpec:
    # shared with the serve endpoints so both surfaces parse "Tsem+cov"
    # and friends identically (part of the bit-identity contract)
    return parse_metric(name)


def _cache_dir_from_args(args: argparse.Namespace) -> str | None:
    """Resolve the cache directory: ``--no-cache`` beats ``--cache-dir``
    beats the ``REPRO_CACHE_DIR`` environment default."""
    if getattr(args, "no_cache", False):
        return None
    return getattr(args, "cache_dir", None) or os.environ.get("REPRO_CACHE_DIR") or None


def _artifacts_from_args(args: argparse.Namespace) -> UnitArtifactStore | None:
    """Unit-artifact store for incremental indexing.

    ``--no-incremental`` disables it; otherwise the root is ``--cache-dir``
    beats ``REPRO_CACHE_DIR`` beats the conventional local directory.
    ``--no-cache`` only disables the TED cache — incremental indexing has
    its own switch. An unusable root degrades to non-incremental indexing.
    """
    if not getattr(args, "incremental", True) or getattr(args, "strict", False):
        return None
    root = (
        getattr(args, "cache_dir", None)
        or os.environ.get("REPRO_CACHE_DIR")
        or ".silvervale-cache"
    )
    try:
        return UnitArtifactStore(root)
    except OSError:
        return None


def _index_kwargs(args: argparse.Namespace) -> dict:
    """Keyword arguments shared by every indexing subcommand."""
    return {"strict": _strict(args), "artifacts": _artifacts_from_args(args)}


def _engine_from_args(args: argparse.Namespace) -> DistanceEngine:
    cache_dir = _cache_dir_from_args(args)
    cache = TedCacheStore(cache_dir) if cache_dir else None
    return DistanceEngine(
        jobs=getattr(args, "jobs", 1),
        cache=cache,
        wave_timeout=getattr(args, "wave_timeout_s", None) or None,
        retries=getattr(args, "retries", 2),
        strict=getattr(args, "strict", False),
    )


def cmd_apps(args: argparse.Namespace) -> int:
    for app in APPS:
        print(f"{app}: {', '.join(app_models(app))}")
    return 0


def _strict(args: argparse.Namespace) -> bool:
    return getattr(args, "strict", False)


def _write_output(path: str, write):
    """``write(path)`` after creating ``path``'s directory, as ``figures -o``
    does; a path that still cannot be written is a :class:`WorkflowError`
    (``error: …``, exit status 1), not a traceback after the whole run."""
    try:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        return write(path)
    except OSError as e:
        raise WorkflowError(f"cannot write {path}: {e}") from e


def cmd_index(args: argparse.Namespace) -> int:
    cb = index_model(args.app, args.model, coverage=args.coverage, **_index_kwargs(args))
    out = args.output or f"{args.app}-{args.model}.svdb"
    size = _write_output(out, lambda p: save_codebase_db(cb, p))
    print(f"indexed {args.app}/{args.model}: {len(cb.units)} unit(s), {size} bytes -> {out}")
    if cb.run_value is not None:
        print(f"verification run returned {cb.run_value}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    spec = _metric_spec(args.metric)
    kw = _index_kwargs(args)
    base = index_model(args.app, args.baseline, coverage=spec.coverage, **kw)
    other = index_model(args.app, args.model, coverage=spec.coverage, **kw)
    # routed through the engine so a configured persistent cache is consulted
    d = divergence_row(base, [other], spec, engine=_engine_from_args(args))[other.model]
    print(f"{args.app}: divergence({args.baseline} -> {args.model}, {spec.label}) = {d:.4f}")
    return 0


def cmd_cluster(args: argparse.Namespace) -> int:
    spec = _metric_spec(args.metric)
    cbs = index_app(args.app, coverage=spec.coverage, **_index_kwargs(args))
    names = list(cbs)
    engine = _engine_from_args(args)
    # matrix cells that pin exactly from stored unit geometry skip the
    # engine (bit-identical by construction)
    dend = cluster_codebases(
        [cbs[m] for m in names], names, spec, engine=engine, index=PairPinner(spec)
    )
    print(f"{args.app} clustering under {spec.label} (complete linkage, Euclidean):")
    print(ascii_dendrogram(dend))
    return 0


def cmd_nearest(args: argparse.Namespace) -> int:
    """k nearest models by divergence: the target's divergence row, run
    through the engine like ``compare`` and sorted by ``(score, model)``."""
    import json

    spec = _metric_spec(args.metric)
    if args.k < 1:
        raise ReproError(f"k must be >= 1, got {args.k}")
    cbs = index_app(args.app, coverage=spec.coverage, **_index_kwargs(args))
    if args.model not in cbs:
        raise ReproError(
            f"unknown model {args.model!r} for {args.app}; have {sorted(cbs)}"
        )
    others = [cb for m, cb in cbs.items() if m != args.model]
    engine = _engine_from_args(args)
    neighbors = nearest(cbs[args.model], others, spec, engine=engine)[: args.k]
    if args.json:
        payload = {
            "app": args.app,
            "model": args.model,
            "metric": spec.label,
            "k": args.k,
            "neighbors": [{"model": m, "divergence": d} for d, m in neighbors],
        }
        print(json.dumps(payload, indent=1, sort_keys=True))
        return 0
    print(f"{args.app}: {args.k} nearest to {args.model} under {spec.label}:")
    for rank, (d, m) in enumerate(neighbors, 1):
        print(f"  {rank}. {m:<20} {d:.4f}")
    return 0


def cmd_heatmap(args: argparse.Namespace) -> int:
    cbs = index_app(args.app, coverage=True, **_index_kwargs(args))
    baseline = cbs[args.baseline]
    models = [cb for m, cb in cbs.items() if m != args.baseline]
    data = divergence_heatmap(baseline, models, HEATMAP_SPECS, engine=_engine_from_args(args))
    print(f"{args.app}: divergence from {args.baseline}")
    print(ascii_heatmap(data))
    return 0


def cmd_figures(args: argparse.Namespace) -> int:
    """Render every figure family for one app into a directory."""
    from repro.perfport.navigation import navigation_chart_from_codebases
    from repro.perfport.pp_metric import phi_table
    from repro.viz import (
        render_cascade_svg,
        render_dendrogram_svg,
        render_heatmap_svg,
        render_navigation_svg,
    )

    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    engine = _engine_from_args(args)
    cbs = index_app(args.app, coverage=True, **_index_kwargs(args))
    names = list(cbs)
    spec = _metric_spec(args.metric)

    dend = cluster_codebases([cbs[m] for m in names], names, spec, engine=engine)
    (out / f"{args.app}_dendrogram_{spec.label}.svg").write_text(
        render_dendrogram_svg(dend, f"{args.app}: {spec.label} clustering")
    )

    baseline = cbs.get(args.baseline)
    if baseline is not None:
        data = divergence_heatmap(baseline, [cbs[m] for m in names], HEATMAP_SPECS, engine=engine)
        (out / f"{args.app}_heatmap.svg").write_text(
            render_heatmap_svg(data, f"{args.app}: divergence from {args.baseline}")
        )
        (out / f"{args.app}_heatmap.csv").write_text(data.to_csv())

    models = [m for m in names if m != args.baseline]
    eff = PerfModel().efficiency_matrix(args.app, models)
    (out / f"{args.app}_cascade.svg").write_text(
        render_cascade_svg(cascade(eff), f"{args.app}: cascade")
    )
    if baseline is not None:
        chart = navigation_chart_from_codebases(
            args.app, phi_table(eff), baseline, [cbs[m] for m in models], engine=engine
        )
        (out / f"{args.app}_navchart.svg").write_text(
            render_navigation_svg(chart, f"{args.app}: Φ vs TBMD")
        )
    print(f"figures written to {out}/")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """Index an app, sweep the divergence matrix, and dump observability data.

    This is the quickest way to see the TED cache behave: memo hits
    (``ted.cache.hit``) are reported separately from identical-hash
    shortcuts (``ted.shortcut``), alongside span timings.
    """
    import json

    collector = obs.current_collector()
    assert collector is not None  # installed by main() for this subcommand
    spec = _metric_spec(args.metric)
    cbs = index_app(args.app, coverage=spec.coverage, **_index_kwargs(args))
    names = list(cbs)
    divergence_matrix([cbs[m] for m in names], spec, engine=_engine_from_args(args))
    # process-lifetime cache state rides along as gauges (the window-scoped
    # ted.cache.hit / ted.cache.miss / ted.shortcut counters are collected
    # by the TED layer itself during the sweep above)
    for k in ("size", "limit"):
        collector.gauge(f"ted.cache.{k}", float(cache_stats()[k]))
    for k in (
        "ted.cache.hit",
        "ted.cache.miss",
        "ted.cache.evicted",
        "ted.shortcut",
        # zero-valued keys are a benchmark-harness contract: a warm-cache
        # run proves itself by ted.zs.calls == 0, so the key must exist
        "ted.zs.calls",
        "cache.disk.hit",
        "cache.disk.miss",
        "ted.pairs",
    ):
        collector.counters.setdefault(k, 0.0)
    if args.json:
        print(json.dumps(obs.metrics_json(collector), indent=1, sort_keys=True))
        return 0
    print(f"{args.app}: {len(names)} models under {spec.label}")
    print()
    print("spans:")
    print(ascii_span_tree(obs.aggregate_spans(collector)))
    print()
    print("counters:")
    print(ascii_counters(collector.counters, collector.gauges))
    if collector.hists:
        print()
        print("latency percentiles:")
        print(ascii_hist_table({k: h.summary() for k, h in collector.hists.items()}))
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    """Inspect (``stats``) or empty (``clear``) the shared artifact root.

    The root holds every artifact namespace side by side — TED cache shards
    (``ted``), per-unit index artifacts (``unit``) and run-ledger snapshots
    (``obs``). ``stats`` keeps the historical top-level TED keys (the CI
    warm-cache gate reads ``entries``) and adds a ``namespaces`` section;
    ``clear`` removes every namespaced file, a retired namespace's
    included, unless ``--namespace`` narrows it to one store.
    """
    import json

    cache_dir = getattr(args, "cache_dir", None) or os.environ.get("REPRO_CACHE_DIR")
    if not cache_dir:
        print("no cache directory: pass --cache-dir or set REPRO_CACHE_DIR", file=sys.stderr)
        return 2
    stores = {
        "ted": TedCacheStore(cache_dir),
        "unit": UnitArtifactStore(cache_dir),
        "obs": runledger.RunLedgerStore(cache_dir),
    }
    if args.cache_command == "clear":
        namespace = getattr(args, "namespace", None)
        if namespace:
            if namespace not in stores:
                print(
                    f"unknown namespace {namespace!r}; have {sorted(stores)}",
                    file=sys.stderr,
                )
                return 2
            removed = stores[namespace].clear()
            print(f"cleared {removed} {namespace} artifact file(s) from {stores['ted'].root}")
        else:
            removed = clear_namespaces(cache_dir)
            print(f"cleared {removed} artifact file(s) from {stores['ted'].root}")
        return 0
    # top-level keys stay the TED shard summary (back-compat contract);
    # the namespaces section enumerates everything under the root
    stats = stores["ted"].stats()
    namespaces = scan_namespaces(cache_dir)
    for ns, store in stores.items():
        if ns in namespaces:
            namespaces[ns]["entries"] = store.stats()["entries"]
    stats["namespaces"] = namespaces
    if getattr(args, "json", False):
        print(json.dumps(stats, indent=1, sort_keys=True))
        return 0
    print(f"cache root : {stats['root']}")
    print(f"schema     : {stats['schema']} ({stats['keyspec']})")
    print(f"shards     : {stats['shards']}")
    print(f"entries    : {stats['entries']}")
    print(f"bytes      : {stats['bytes']}")
    if stats["invalid_shards"]:
        print(f"invalid    : {', '.join(stats['invalid_shards'])} (clear to rebuild)")
    if namespaces:
        print("namespaces :")
        for ns in sorted(namespaces):
            rec = namespaces[ns]
            entries = f", {rec['entries']} entr{'y' if rec['entries'] == 1 else 'ies'}" \
                if "entries" in rec else ""
            print(f"  {ns:<5} {rec['files']} file(s), {rec['bytes']} bytes{entries}")
    return 0


def _ledger_root(args: argparse.Namespace) -> str:
    """Run-ledger root: the same resolution as incremental indexing, so
    snapshots live next to the unit/ted namespaces. ``--no-cache``
    only affects the TED cache, not the ledger."""
    return (
        getattr(args, "cache_dir", None)
        or os.environ.get("REPRO_CACHE_DIR")
        or ".silvervale-cache"
    )


def _record_ledger(
    args: argparse.Namespace,
    collector: obs.Collector,
    rc: int,
    duration_s: float,
    argv: list[str] | None,
) -> None:
    """Persist one run snapshot; a broken ledger never fails the run."""
    try:
        store = runledger.RunLedgerStore(_ledger_root(args))
        workload = {
            k: getattr(args, k)
            for k in ("app", "model", "baseline", "metric", "jobs")
            if getattr(args, k, None) is not None
        }
        # commands may stash extra workload fields (the serve daemon's
        # lifetime summary) to ride along in the snapshot
        workload.update(getattr(args, "_workload_extra", None) or {})
        corpus = (
            runledger.corpus_fingerprint(args.app) if getattr(args, "app", None) else None
        )
        snap = runledger.snapshot_from_collector(
            collector,
            command=args.command,
            argv=argv if argv is not None else sys.argv[1:],
            duration_s=duration_s,
            workload=workload,
            corpus=corpus,
            exit_code=rc,
        )
        run_id = runledger.record_run(store, snap)
        if getattr(args, "profile", False):
            print(f"ledger snapshot {run_id} -> {store.root}")
    except Exception as e:
        print(f"warning: run ledger not recorded: {e}", file=sys.stderr)


def _hist_summaries(snap: dict) -> dict:
    return snap.get("metrics", {}).get("hists", {})


def cmd_obs(args: argparse.Namespace) -> int:
    """Read the run ledger: ``history`` (trend table), ``diff`` (counter and
    latency deltas between two runs), ``report`` (one run's summary)."""
    import json

    store = runledger.RunLedgerStore(_ledger_root(args))
    if args.obs_command == "history":
        snaps = runledger.history(
            store,
            command=getattr(args, "command_filter", None),
            app=getattr(args, "app", None),
            limit=getattr(args, "limit", None),
        )
        if args.json:
            print(json.dumps(snaps, indent=1, sort_keys=True))
            return 0
        if not snaps:
            print("run ledger is empty (workload runs record snapshots automatically)")
            return 0
        w = max(len(s["run"]) for s in snaps) + 1
        print(
            f"{'run':<{w}}{'command':<10}{'app':<14}{'corpus':<10}"
            f"{'jobs':>4}{'dur(s)':>9}{'exit':>5}"
        )
        for s in snaps:
            wl = s.get("workload", {})
            print(
                f"{s['run']:<{w}}{s.get('command', '?'):<10}"
                f"{wl.get('app', '-') or '-':<14}"
                f"{(s.get('corpus') or '-')[:8]:<10}"
                f"{wl.get('jobs', 1):>4}{s.get('duration_s', 0.0):>9.2f}"
                f"{s.get('exit_code', 0):>5}"
            )
        return 0
    if args.obs_command == "diff":
        ids = store.run_ids()
        if len(ids) < 2:
            # nothing to compare is a normal state for a fresh checkout /
            # fresh CI cache, not an error: exit 0 so advisory ledger steps
            # can run unconditionally
            msg = (
                f"run ledger has {len(ids)} snapshot(s); need two to diff "
                "(workload runs record snapshots automatically)"
            )
            if args.json:
                print(
                    json.dumps(
                        {"skipped": True, "reason": msg, "runs": len(ids)},
                        indent=1,
                        sort_keys=True,
                    )
                )
            else:
                print(msg)
            return 0
        a = store.load(runledger.resolve_run(store, args.run_a))
        b = store.load(runledger.resolve_run(store, args.run_b))
        d = runledger.diff_snapshots(a, b)
        if args.json:
            print(json.dumps(d, indent=1, sort_keys=True))
            return 0 if d["schema_ok"] else 1
        print(f"diff {d['before']} -> {d['after']}")
        if not d["schema_ok"]:
            sch = d["schemas"]
            print(
                f"error: metrics schemas differ ({sch['before']} vs {sch['after']}); "
                "numbers are not comparable across schema versions",
                file=sys.stderr,
            )
            return 1
        if not d["comparable"]:
            print(
                "note: runs differ in command or corpus fingerprint; "
                "latency deltas may reflect workload changes, not regressions"
            )
        dur = d["duration_s"]
        print(f"wall time: {dur['before']:.2f}s -> {dur['after']:.2f}s ({dur['delta']:+.2f}s)")
        if d["counters"]:
            print("counters:")
            w = max(len(k) for k in d["counters"]) + 1
            for name, rec in d["counters"].items():
                print(f"  {name:<{w}}{rec['before']:>12g} -> {rec['after']:<12g}({rec['delta']:+g})")
        else:
            print("counters: no changes")
        if d["hists"]:
            print("latency (p50/p99 ms):")
            w = max(len(k) for k in d["hists"]) + 1
            for name, rec in d["hists"].items():
                flag = "  ← regressed" if name in d["regressions"] else ""
                p50, p99 = rec.get("p50_s"), rec.get("p99_s")
                parts = [f"  {name:<{w}}"]
                if p50:
                    parts.append(f"p50 {p50['before'] * 1e3:.3f}->{p50['after'] * 1e3:.3f}")
                if p99:
                    parts.append(f"  p99 {p99['before'] * 1e3:.3f}->{p99['after'] * 1e3:.3f}")
                print("".join(parts) + flag)
        if d["regressions"]:
            print(
                f"warning: {len(d['regressions'])} span(s) regressed "
                f"(p99 grew >{int(runledger.REGRESSION_FRAC * 100)}%): "
                + ", ".join(d["regressions"]),
                file=sys.stderr,
            )
        return 0
    # report
    snap = store.load(runledger.resolve_run(store, args.run))
    if args.json:
        print(json.dumps(snap, indent=1, sort_keys=True))
        return 0
    wl = snap.get("workload", {})
    print(f"run      : {snap['run']}")
    print(f"command  : {snap.get('command', '?')}  argv: {' '.join(snap.get('argv', []))}")
    if wl:
        print(f"workload : {', '.join(f'{k}={v}' for k, v in sorted(wl.items()))}")
    if snap.get("corpus"):
        print(f"corpus   : {snap['corpus']}")
    print(f"wall time: {snap.get('duration_s', 0.0):.2f}s  exit {snap.get('exit_code', 0)}")
    counters = snap.get("metrics", {}).get("counters", {})
    if counters:
        print()
        print("counters:")
        print(ascii_counters(counters, snap.get("metrics", {}).get("gauges", {})))
    hists = _hist_summaries(snap)
    if hists:
        print()
        print("latency percentiles:")
        print(ascii_hist_table(hists))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the divergence service daemon until shutdown.

    Serves the ``compare``/``cluster``/``heatmap``/``nearest`` analyses
    (plus index/stats introspection) as JSON over HTTP, from a shared hot tier
    with request coalescing, on one engine thread; see ``repro/serve`` and
    README §"Running as a service". ``--wave-timeout-s`` is the distance
    pool's wave budget, so it bounds a wave only with ``--jobs N``; a serial
    wave runs to the end. Blocks until SIGINT/SIGTERM or
    ``POST /v1/shutdown``, then drains gracefully and records the session's
    ledger snapshot like any batch command.
    """
    from repro.serve.daemon import ServeDaemon

    daemon = ServeDaemon(
        _engine_from_args(args),
        host=args.host,
        port=args.port,
        artifacts=_artifacts_from_args(args),
        strict=_strict(args),
        warm=args.warm or [],
        window_s=args.batch_window_ms / 1000.0,
        port_file=args.port_file,
        grace_s=args.grace,
        max_inflight=args.max_inflight,
        max_queue=args.max_queue,
        io_timeout_s=args.io_timeout_s,
    )
    daemon.run()
    # the session collector is still open here; stash the serve-lifetime
    # summary so _record_ledger folds it into the snapshot's workload
    args._workload_extra = dict(daemon.summary)
    return 0


def cmd_phi(args: argparse.Namespace) -> int:
    models = app_models(args.app)
    matrix = PerfModel().efficiency_matrix(args.app, models)
    bars = phi_table(matrix)
    print(f"Φ over all six platforms ({args.app}):")
    print(ascii_bars(bars))
    if args.cascade:
        data = cascade(matrix)
        print()
        print(data.to_csv())
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="silvervale", description=__doc__)
    # profiling options shared by every subcommand (parents= so they can be
    # given after the subcommand name, the natural spot)
    prof = argparse.ArgumentParser(add_help=False)
    g = prof.add_argument_group("profiling")
    g.add_argument(
        "--profile",
        action="store_true",
        help="print a nested span report and counter table after the run",
    )
    g.add_argument("--trace-out", metavar="FILE", help="write Chrome trace-event JSON")
    g.add_argument("--metrics-out", metavar="FILE", help="write flat metrics JSON")
    g.add_argument(
        "--no-ledger",
        action="store_true",
        help="skip recording this run's metrics snapshot in the obs run ledger",
    )
    # error-handling option shared by every indexing subcommand
    tol = argparse.ArgumentParser(add_help=False)
    tol.add_argument(
        "--strict",
        action="store_true",
        help="fail fast on frontend errors instead of quarantining damaged units",
    )
    # options shared by every indexing subcommand
    idx = argparse.ArgumentParser(add_help=False)
    gx = idx.add_argument_group("indexing")
    gx.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="artifact root holding unit artifacts and the persistent TED "
        "cache (default: $REPRO_CACHE_DIR if set)",
    )
    gx.add_argument(
        "--incremental",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="replay unchanged units from per-unit index artifacts in the "
        "cache directory (default: on; --no-incremental re-runs every "
        "frontend)",
    )
    # distance-engine options, only for subcommands that build an engine
    eng = argparse.ArgumentParser(add_help=False)
    ge = eng.add_argument_group("distance engine")
    ge.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the distance engine (default: 1, serial)",
    )
    ge.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore any configured persistent TED cache for this run",
    )
    gf = eng.add_argument_group("fault tolerance")
    gf.add_argument(
        "--retries",
        type=int,
        default=2,
        metavar="N",
        help="extra attempts per chunk after a task error or worker death "
        "(default: 2); an exhausted chunk degrades to NaN cells unless --strict",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("apps", help="list corpus apps and models", parents=[prof])
    pa.set_defaults(fn=cmd_apps)

    pi = sub.add_parser(
        "index", help="index one model port into a Codebase DB", parents=[prof, idx, tol]
    )
    pi.add_argument("app")
    pi.add_argument("model")
    pi.add_argument("-o", "--output")
    pi.add_argument("--coverage", action="store_true", help="run for coverage first")
    pi.set_defaults(fn=cmd_index, _ledger=True)

    pc = sub.add_parser(
        "compare", help="divergence of a model from a baseline", parents=[prof, idx, eng, tol]
    )
    pc.add_argument("app")
    pc.add_argument("model")
    pc.add_argument("-b", "--baseline", default="serial")
    pc.add_argument("-m", "--metric", default="Tsem")
    pc.set_defaults(fn=cmd_compare, _ledger=True)

    pk = sub.add_parser(
        "cluster", help="dendrogram of all models under a metric", parents=[prof, idx, eng, tol]
    )
    pk.add_argument("app")
    pk.add_argument("-m", "--metric", default="Tsem")
    pk.set_defaults(fn=cmd_cluster, _ledger=True)

    pn = sub.add_parser(
        "nearest",
        help="k nearest models by divergence (one sorted matrix row)",
        parents=[prof, idx, eng, tol],
    )
    pn.add_argument("app")
    pn.add_argument("model")
    pn.add_argument(
        "-k", type=int, default=3, metavar="N", help="neighbors to report (default: 3)"
    )
    pn.add_argument("-m", "--metric", default="Tsem")
    pn.add_argument("--json", action="store_true", help="print the result as JSON")
    pn.set_defaults(fn=cmd_nearest, _ledger=True)

    ph = sub.add_parser(
        "heatmap", help="divergence-from-baseline heatmap", parents=[prof, idx, eng, tol]
    )
    ph.add_argument("app")
    ph.add_argument("-b", "--baseline", default="serial")
    ph.set_defaults(fn=cmd_heatmap, _ledger=True)

    psv = sub.add_parser(
        "serve",
        help="long-lived HTTP daemon serving compare/cluster/heatmap as JSON",
        parents=[prof, idx, eng, tol],
    )
    psv.add_argument("--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)")
    psv.add_argument(
        "--port", type=int, default=8787, help="TCP port; 0 picks a free one (default: 8787)"
    )
    psv.add_argument(
        "--warm",
        action="append",
        metavar="APP",
        help="index APP's models (and preload the TED disk memo) before "
        "accepting traffic; repeatable; 'all' warms every app",
    )
    psv.add_argument(
        "--batch-window-ms",
        type=float,
        default=5.0,
        metavar="MS",
        help="demand-coalescing window after the first demand of a wave "
        "(default: 5.0; 0 still folds same-iteration demands)",
    )
    psv.add_argument(
        "--port-file",
        metavar="FILE",
        help="write the bound port here once ready (for --port 0 harnesses)",
    )
    psv.add_argument(
        "--grace",
        type=float,
        default=2.0,
        metavar="S",
        help="shutdown grace window for in-flight responses (default: 2.0)",
    )
    ov = psv.add_argument_group("overload and failure hardening")
    ov.add_argument(
        "--max-inflight",
        type=int,
        default=64,
        metavar="N",
        help="admission budget: concurrent requests past health/stats "
        "(default: 64; 0 disables admission control)",
    )
    ov.add_argument(
        "--max-queue",
        type=int,
        default=128,
        metavar="N",
        help="requests allowed to queue for an admission slot before the "
        "daemon sheds with 429 (default: 128; 0 sheds immediately at budget)",
    )
    ov.add_argument(
        "--io-timeout-s",
        type=float,
        default=30.0,
        metavar="S",
        help="slow-client guard: header/body read and response write "
        "deadline; a started-then-stalled request gets 408, an idle "
        "keep-alive closes silently (default: 30; 0 disables)",
    )
    ov.add_argument(
        "--wave-timeout-s",
        type=float,
        default=300.0,
        metavar="S",
        help="distance-pool wave budget, applied only with --jobs N: past it "
        "the pool kills its workers and the wave's unfinished keys "
        "answer 500; a serial wave (--jobs 1) runs to the end "
        "(default: 300; 0 disables)",
    )
    psv.set_defaults(fn=cmd_serve, _always_collect=True, _ledger=True)

    pp = sub.add_parser("phi", help="Φ table from the performance model", parents=[prof])
    pp.add_argument("app")
    pp.add_argument("--cascade", action="store_true")
    pp.set_defaults(fn=cmd_phi)

    ps = sub.add_parser(
        "stats",
        help="run an index+compare workload and dump spans/counters/cache stats",
        parents=[prof, idx, eng, tol],
    )
    ps.add_argument("app")
    ps.add_argument("-m", "--metric", default="Tsem")
    ps.add_argument("--json", action="store_true", help="print the metrics JSON instead of text")
    ps.set_defaults(fn=cmd_stats, _always_collect=True, _ledger=True)

    pf = sub.add_parser(
        "figures", help="render all figure SVGs for an app", parents=[prof, idx, eng, tol]
    )
    pf.add_argument("app")
    pf.add_argument("-o", "--output", default="figures")
    pf.add_argument("-b", "--baseline", default="serial")
    pf.add_argument("-m", "--metric", default="Tsem")
    pf.set_defaults(fn=cmd_figures, _ledger=True)

    pcache = sub.add_parser("cache", help="persistent TED cache maintenance", parents=[prof])
    cache_sub = pcache.add_subparsers(dest="cache_command", required=True)
    pcs = cache_sub.add_parser("stats", help="entry/shard/byte counts for the cache")
    pcs.add_argument("--cache-dir", metavar="DIR")
    pcs.add_argument("--json", action="store_true", help="print stats as JSON")
    pcs.set_defaults(fn=cmd_cache)
    pcc = cache_sub.add_parser("clear", help="delete artifact files from the cache root")
    pcc.add_argument("--cache-dir", metavar="DIR")
    pcc.add_argument(
        "--namespace",
        metavar="NS",
        help="clear only one namespace (ted, unit or obs; default: "
        "every namespaced file under the root)",
    )
    pcc.set_defaults(fn=cmd_cache)

    po = sub.add_parser(
        "obs", help="run-ledger trend tools: history, diff, report", parents=[prof]
    )
    obs_sub = po.add_subparsers(dest="obs_command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="artifact root holding the ledger (default: $REPRO_CACHE_DIR "
        "or .silvervale-cache)",
    )
    common.add_argument("--json", action="store_true", help="print JSON instead of a table")
    poh = obs_sub.add_parser("history", help="trend table of recorded runs", parents=[common])
    poh.add_argument(
        "--command", dest="command_filter", metavar="CMD", help="only runs of this subcommand"
    )
    poh.add_argument("--app", metavar="APP", help="only runs over this corpus app")
    poh.add_argument(
        "--limit", type=int, default=20, metavar="N", help="newest N runs (default: 20)"
    )
    poh.set_defaults(fn=cmd_obs)
    pod = obs_sub.add_parser(
        "diff",
        help="counter and latency deltas between two runs (tokens: run-id "
        "prefix, 'last', 'prev')",
        parents=[common],
    )
    pod.add_argument("run_a", help="before run (id prefix, 'last' or 'prev')")
    pod.add_argument("run_b", help="after run (id prefix, 'last' or 'prev')")
    pod.set_defaults(fn=cmd_obs)
    por = obs_sub.add_parser("report", help="summary of one recorded run", parents=[common])
    por.add_argument(
        "run", nargs="?", default="last", help="run id prefix, 'last' (default) or 'prev'"
    )
    por.set_defaults(fn=cmd_obs)
    return p


def _emit_reports(args: argparse.Namespace, collector: obs.Collector) -> None:
    if getattr(args, "profile", False) and not getattr(args, "_always_collect", False):
        print()
        print("── profile ─────────────────────────────────────────")
        roots = obs.aggregate_spans(collector)
        print(ascii_span_tree(roots) if roots else "(no spans recorded)")
        if collector.counters or collector.gauges:
            print()
            print(ascii_counters(collector.counters, collector.gauges))
        if collector.hists:
            print()
            print("latency percentiles:")
            print(ascii_hist_table({k: h.summary() for k, h in collector.hists.items()}))
    if getattr(args, "trace_out", None):
        path = _write_output(args.trace_out, lambda p: obs.write_chrome_trace(collector, p))
        print(f"trace written to {path}")
    if getattr(args, "metrics_out", None):
        path = _write_output(args.metrics_out, lambda p: obs.write_metrics(collector, p))
        print(f"metrics written to {path}")


def _emit_diagnostics(sink: diag.DiagnosticSink, limit: int = 50) -> None:
    """Print collected diagnostics and a one-line summary on stderr."""
    if sink.count() == 0:
        return
    for d in sink.diagnostics[:limit]:
        print(d.format(), file=sys.stderr)
    hidden = len(sink.diagnostics) - limit
    if hidden > 0:
        print(f"... {hidden} more diagnostic(s) not shown", file=sys.stderr)
    print(f"completed with {sink.summary()}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    import time

    args = build_parser().parse_args(argv)
    wants_ledger = getattr(args, "_ledger", False) and not getattr(args, "no_ledger", False)
    wants_collect = (
        getattr(args, "profile", False)
        or getattr(args, "trace_out", None)
        or getattr(args, "metrics_out", None)
        or getattr(args, "_always_collect", False)
        or wants_ledger
    )
    t0 = time.perf_counter()
    try:
        with diag.capture() as sink:
            try:
                if not wants_collect:
                    rc = args.fn(args)
                else:
                    with obs.collect() as collector:
                        rc = args.fn(args)
                        _emit_reports(args, collector)
                        if wants_ledger:
                            # snapshot before the save, so the ledger's own
                            # obs.ledger.saved counter never pollutes it;
                            # interrupted/failed runs record nothing
                            _record_ledger(args, collector, rc, time.perf_counter() - t0, argv)
            finally:
                _emit_diagnostics(sink)
    except ReproError as e:
        # strict-mode failures (and genuine workflow misconfiguration)
        # abort with a distinct exit status; quarantined runs return 0 above
        print(f"error: {e}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        # engine runs already terminated their pool and flushed the TED
        # cache; the distance/interrupted diagnostic above says what the
        # cache holds for a re-run to resume from
        print("interrupted", file=sys.stderr)
        return 130
    return rc


if __name__ == "__main__":
    sys.exit(main())
