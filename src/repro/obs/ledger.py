"""Persistent run ledger: every CLI run leaves a diffable metrics snapshot.

The paper's productivity metric is only credible if reproduction runs are
comparable *over time* — "is compare faster than it was last week, and did
the counters move?" is a question flat per-run JSON files cannot answer.
This store gives every ``silvervale`` run (and every benchmark harness
run) a durable, schema-stamped snapshot in the shared artifact root, and
the ``silvervale obs`` subcommand family reads them back:

* ``obs history`` — trend table of recent runs, filterable per command /
  app / corpus fingerprint;
* ``obs diff <run> <run>`` — counter and latency deltas between two
  snapshots, with regression highlighting;
* ``obs report`` — one run's full summary (latest by default).

Ledger key contract (pinned in DESIGN.md §"Run ledger contract")
----------------------------------------------------------------
One ``obs-<run-id>.svc`` file per run under the artifact root, in the
``obs`` namespace of the generic artifact layer (next to ``ted`` and
``unit``). The run id is time-ordered (``YYYYMMDDTHHMMSS-<µs>-<pid>``), so
lexicographic order *is* chronological order and "latest"/"previous" are
cheap. The payload value is the snapshot dict below; its ``metrics``
section is exactly :func:`repro.obs.metrics_json`, so the ledger shares
one schema version (:data:`repro.obs.METRICS_SCHEMA`) with ``--metrics-out``
files and the benchmark artifacts. Snapshots are immutable once written;
``silvervale cache clear --namespace obs`` is the only pruning mechanism.
"""

from __future__ import annotations

import sys
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Optional, Sequence

from repro.artifacts import BlobStore
from repro.obs.export import METRICS_SCHEMA, metrics_json
from repro.obs.spans import Collector
from repro.util.errors import ReproError

#: Ledger container schema (the artifact-layer stamp on every obs-*.svc).
LEDGER_SCHEMA = "repro.obsledger/v1"

#: What the container stamp cannot encode: the snapshot layout the stored
#: values follow. Bump to invalidate every existing snapshot.
LEDGER_KEY_SPEC = "obsrun:v1"

#: Envelope schema shared by the BENCH/INCR/CHAOS/FUZZ/OBS harness
#: artifacts (one version for all of them; the per-case ``metrics``
#: sections inside carry :data:`METRICS_SCHEMA`).
HARNESS_SCHEMA = "repro.harness/v1"

#: p99 latency increase (fractional) past which ``obs diff`` highlights a
#: span as regressed; paired with an absolute floor so micro-spans do not
#: flap.
REGRESSION_FRAC = 0.25
REGRESSION_FLOOR_S = 0.001


class RunLedgerStore(BlobStore):
    """Directory of per-run metrics snapshots (``obs`` artifact namespace)."""

    NAMESPACE = "obs"
    SCHEMA = LEDGER_SCHEMA
    KEY_SPEC = LEDGER_KEY_SPEC
    DESCRIPTION = "run-ledger snapshot"
    KIND = "ledger snapshot"
    INVALID_COUNTER = "obs.ledger.invalid"
    SAVED_COUNTER = "obs.ledger.saved"
    KEY_FIELD = "run"
    VALUE_FIELD = "snapshot"

    def run_ids(self) -> list[str]:
        """Run ids on disk, oldest first (ids are time-ordered by layout)."""
        return sorted(self.keys())


def new_run_id(now: Optional[float] = None) -> str:
    """Time-ordered, collision-resistant run id (UTC time + µs + pid)."""
    t = time.time() if now is None else now
    dt = datetime.fromtimestamp(t, tz=timezone.utc)
    import os

    return f"{dt.strftime('%Y%m%dT%H%M%S')}-{dt.microsecond:06d}-{os.getpid()}"


def corpus_fingerprint(app: str, models: Optional[Sequence[str]] = None) -> Optional[str]:
    """Content digest of the corpus slice a run read (sorted file hashes).

    Two snapshots are latency-comparable only when they measured the same
    inputs; this is the "same inputs" half of that check. Returns ``None``
    for unknown apps — the ledger records the run either way.
    """
    import hashlib

    try:
        from repro.corpus.registry import app_models, build_fs
    except ImportError:  # pragma: no cover - corpus is always present
        return None
    try:
        names = sorted(models) if models is not None else app_models(app)
        h = hashlib.sha256()
        for model in names:
            fs = build_fs(app, model)
            h.update(model.encode())
            for path in sorted(fs.files):
                h.update(path.encode())
                h.update(hashlib.sha256(fs.files[path].encode()).digest())
        return h.hexdigest()[:16]
    except Exception:
        return None


def snapshot_from_collector(
    collector: Collector,
    command: str,
    argv: Optional[Sequence[str]] = None,
    duration_s: float = 0.0,
    workload: Optional[dict[str, Any]] = None,
    corpus: Optional[str] = None,
    exit_code: int = 0,
    run_id: Optional[str] = None,
) -> dict[str, Any]:
    """Build one ledger snapshot; ``metrics`` is :func:`metrics_json` verbatim."""
    return {
        "run": run_id or new_run_id(),
        "time_unix": time.time(),
        "command": command,
        "argv": list(argv) if argv is not None else [],
        "workload": dict(workload or {}),
        "corpus": corpus,
        "duration_s": float(duration_s),
        "exit_code": int(exit_code),
        "metrics": metrics_json(collector),
    }


def record_run(store: RunLedgerStore, snapshot: dict[str, Any]) -> str:
    """Persist one snapshot; returns its run id."""
    run_id = snapshot["run"]
    store.save(run_id, snapshot)
    return run_id


def history(
    store: RunLedgerStore,
    command: Optional[str] = None,
    app: Optional[str] = None,
    limit: Optional[int] = None,
) -> list[dict[str, Any]]:
    """Snapshots oldest-first, optionally filtered, keeping the newest
    ``limit`` entries (unreadable files are skipped, not fatal)."""
    out = []
    for run_id in store.run_ids():
        snap = store.load(run_id)
        if not snap:
            continue
        if command is not None and snap.get("command") != command:
            continue
        if app is not None and snap.get("workload", {}).get("app") != app:
            continue
        out.append(snap)
    if limit is not None and len(out) > limit:
        out = out[-limit:]
    return out


def resolve_run(store: RunLedgerStore, token: str) -> str:
    """Map a user token to a run id: ``last``/``latest``, ``prev``, or a
    unique run-id prefix. Raises :class:`ReproError` on no/ambiguous match."""
    ids = store.run_ids()
    if not ids:
        raise ReproError("run ledger is empty: no snapshots recorded yet")
    if token in ("last", "latest"):
        return ids[-1]
    if token in ("prev", "previous"):
        if len(ids) < 2:
            raise ReproError("run ledger has only one snapshot; no previous run")
        return ids[-2]
    matches = [i for i in ids if i.startswith(token)]
    if not matches:
        raise ReproError(f"no ledger snapshot matches {token!r}")
    if len(matches) > 1:
        raise ReproError(
            f"{token!r} is ambiguous: matches {len(matches)} snapshots "
            f"({', '.join(matches[:4])}{', ...' if len(matches) > 4 else ''})"
        )
    return matches[0]


def diff_snapshots(a: dict[str, Any], b: dict[str, Any]) -> dict[str, Any]:
    """Structured delta of two snapshots (``a`` = before, ``b`` = after).

    ``schema_ok`` is the hard gate (CI fails on a mismatch — the numbers
    are not comparable across metric-schema versions); latency movement is
    advisory: a span whose p99 grew by more than :data:`REGRESSION_FRAC`
    (and :data:`REGRESSION_FLOOR_S` absolute) lands in ``regressions``.
    """
    ma, mb = a.get("metrics", {}), b.get("metrics", {})
    schema_a, schema_b = ma.get("schema"), mb.get("schema")
    ca, cb = ma.get("counters", {}), mb.get("counters", {})
    counters: dict[str, dict[str, float]] = {}
    for name in sorted(set(ca) | set(cb)):
        va, vb = ca.get(name, 0.0), cb.get(name, 0.0)
        if va != vb:
            counters[name] = {"before": va, "after": vb, "delta": vb - va}
    ha, hb = ma.get("hists", {}), mb.get("hists", {})
    hists: dict[str, dict[str, float]] = {}
    regressions: list[str] = []
    for name in sorted(set(ha) & set(hb)):
        sa, sb = ha[name], hb[name]
        if not sa.get("count") or not sb.get("count"):
            continue
        rec = {}
        for q in ("p50_s", "p99_s"):
            if q in sa and q in sb:
                rec[q] = {"before": sa[q], "after": sb[q], "delta": sb[q] - sa[q]}
        if rec:
            hists[name] = rec
        p99 = rec.get("p99_s")
        if (
            p99 is not None
            and p99["delta"] > REGRESSION_FLOOR_S
            and p99["before"] > 0
            and p99["delta"] / p99["before"] > REGRESSION_FRAC
        ):
            regressions.append(name)
    same_corpus = (
        a.get("corpus") is not None
        and a.get("corpus") == b.get("corpus")
        and a.get("command") == b.get("command")
    )
    return {
        "before": a.get("run"),
        "after": b.get("run"),
        "schema_ok": schema_a == schema_b == METRICS_SCHEMA,
        "schemas": {"before": schema_a, "after": schema_b},
        "comparable": same_corpus,
        "duration_s": {
            "before": a.get("duration_s", 0.0),
            "after": b.get("duration_s", 0.0),
            "delta": b.get("duration_s", 0.0) - a.get("duration_s", 0.0),
        },
        "counters": counters,
        "hists": hists,
        "regressions": regressions,
    }


# ---------------------------------------------------------------------------
# Benchmark-harness artifact envelope (BENCH/INCR/CHAOS/FUZZ/OBS unification)
# ---------------------------------------------------------------------------


def harness_artifact(kind: str, report: dict[str, Any]) -> dict[str, Any]:
    """One shared envelope for every CI harness JSON artifact."""
    return {
        "schema": HARNESS_SCHEMA,
        "kind": kind,
        "metrics_schema": METRICS_SCHEMA,
        "generated_unix": time.time(),
        "report": report,
    }


def write_harness_artifact(path: str | Path, kind: str, report: dict[str, Any]) -> Path:
    """Serialise :func:`harness_artifact` as JSON to ``path``."""
    import json

    p = Path(path)
    p.write_text(json.dumps(harness_artifact(kind, report), indent=2, sort_keys=True) + "\n")
    return p


def record_harness_run(
    ledger_dir: Optional[str],
    kind: str,
    collector: Optional[Collector],
    report: dict[str, Any],
    duration_s: float = 0.0,
) -> Optional[str]:
    """Optionally persist a harness run into a ledger (``--ledger-dir``).

    Harness snapshots share the CLI snapshot shape (``command`` is
    ``harness:<kind>``) so ``obs history``/``obs diff`` read them like any
    other run; failures are reported to stderr but never fail the harness.
    """
    if not ledger_dir:
        return None
    try:
        store = RunLedgerStore(ledger_dir)
        collector = collector if collector is not None else Collector()
        snap = snapshot_from_collector(
            collector,
            command=f"harness:{kind}",
            duration_s=duration_s,
            workload={"kind": kind},
        )
        snap["report"] = report
        return record_run(store, snap)
    except Exception as e:  # a broken ledger must not fail a benchmark gate
        print(f"warning: could not record {kind} harness run: {e}", file=sys.stderr)
        return None
