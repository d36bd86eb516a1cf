"""The compare step: divergences over the cartesian product of models.

§V-A: "We run the comparison step over the cartesian product of all models
to yield a correlation matrix" — :func:`divergence_matrix` is that matrix
for any metric; :func:`divergence_row` produces divergence-from-baseline
rows (Figs. 7–10).

Every divergence is symmetric: the edit distances are, and Eq. 7's
``dmax`` is the larger of the two sizes (DESIGN.md "Eq. 7 normalisation").
So each unordered model pair is evaluated once, by one task function
(:func:`divergence_task`), on every surface: matrix, row, heatmap, nearest
and serve. Serve also names each pair by one key (:func:`pair_task_key`)
for its memo and request batcher; the batch surfaces need no key.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro import obs
from repro.distance.engine import DistanceEngine
from repro.trees.hashing import cached_structural_hash
from repro.workflow.codebase import IndexedCodebase


@dataclass(frozen=True)
class MetricSpec:
    """A metric + variant selection, e.g. ``MetricSpec("Tsem")`` or
    ``MetricSpec("Source", pp=True, coverage=True)``."""

    name: str  # SLOC | LLOC | Source | Tsrc | Tsem | Tir
    pp: bool = False
    coverage: bool = False
    inlining: bool = False
    include_system: bool = False

    @property
    def label(self) -> str:
        s = self.name
        if self.inlining:
            s += "+i"
        if self.pp:
            s += "+pp"
        if self.coverage:
            s += "+cov"
        return s


def parse_metric(name: str) -> MetricSpec:
    """Parse the CLI/HTTP metric syntax (``Tsem``, ``Source+pp+cov``,
    ``Tsem+i``) into a :class:`MetricSpec`.

    One parser shared by the batch CLI and ``silvervale serve`` — part of
    the bit-identity-with-CLI guarantee: both surfaces cannot drift in how
    they read a metric name.
    """
    base = name
    pp = cov = inl = False
    for suffix, flag in (("+pp", "pp"), ("+cov", "cov"), ("+i", "inl")):
        if suffix in base:
            base = base.replace(suffix, "")
            if flag == "pp":
                pp = True
            elif flag == "cov":
                cov = True
            else:
                inl = True
    return MetricSpec(base, pp=pp, coverage=cov, inlining=inl)


#: The six metrics of the Fig. 5/6 dendrogram panels.
DEFAULT_METRICS: tuple[MetricSpec, ...] = (
    MetricSpec("LLOC"),
    MetricSpec("SLOC"),
    MetricSpec("Source"),
    MetricSpec("Tsrc"),
    MetricSpec("Tsem"),
    MetricSpec("Tir"),
)


def divergence(a: IndexedCodebase, b: IndexedCodebase, spec: MetricSpec) -> float:
    """Normalised divergence of ``b`` from ``a`` under ``spec`` (0 = identical).

    Symmetric: ``divergence(a, b, s) == divergence(b, a, s)`` bit for bit.
    """
    with obs.span("compare.divergence", metric=spec.label, base=a.model, other=b.model):
        return _divergence(a, b, spec)


def _tree_kind(spec: MetricSpec) -> Optional[str]:
    """The tree variant a tree-metric spec compares, or ``None`` for
    non-tree metrics. One resolver shared by :func:`_divergence`,
    :func:`divergence_prepare` and :mod:`repro.metricindex`, so the
    warm-up can never batch a different tree than the evaluation reads."""
    if spec.name not in ("Tsrc", "Tsem", "Tir"):
        return None
    which = {"Tsrc": "src", "Tsem": "sem", "Tir": "ir"}[spec.name]
    if spec.pp and spec.name == "Tsrc":
        which = "src+pp"
    if spec.inlining and spec.name == "Tsem":
        which = "sem+i"
    return which


def _divergence(a: IndexedCodebase, b: IndexedCodebase, spec: MetricSpec) -> float:
    # deferred imports: repro.metrics consumes the codebase model this
    # package defines, so importing it at module scope would be circular
    from repro.metrics.lloc import lloc
    from repro.metrics.sloc import sloc
    from repro.metrics.source_dist import source_distance
    from repro.metrics.tbmd import count_divergence
    from repro.metrics.treemetrics import tree_distance

    mask_a = a.mask() if spec.coverage else None
    mask_b = b.mask() if spec.coverage else None
    variant = "pp" if spec.pp else "pre"
    if spec.name in ("SLOC", "LLOC"):
        count = sloc if spec.name == "SLOC" else lloc
        return count_divergence(count(a, variant, mask_a), count(b, variant, mask_b))
    if spec.name == "Source":
        d, dmax = source_distance(a, b, variant, mask_a, mask_b)
        return d / dmax if dmax else 0.0
    which = _tree_kind(spec)
    if which is not None:
        d, dmax = tree_distance(a, b, which, mask_a, mask_b, spec.include_system)
        return d / dmax if dmax else 0.0
    raise ValueError(f"unknown metric {spec.name!r}")


def divergence_prepare(tasks: Sequence[tuple]) -> None:
    """Chunk-level warm-up: batch all of a chunk's TED pairs at once.

    Accepts the same ``(a, b, spec)`` task tuples as :func:`divergence_task`.
    Tree-metric tasks contribute their matched unit-tree pairs; everything
    is handed to :func:`repro.distance.ted.ted_many`, which packs the small
    fresh pairs into one cross-pair row sweep.
    Purely a memo warmer — the per-task evaluation recomputes anything
    missing, so results are identical with or without it.
    """
    from repro.distance.ted import ted_many
    from repro.metrics.treemetrics import tree_ted_demands

    demands: list[tuple] = []
    for task in tasks:
        a, b, spec = task
        which = _tree_kind(spec)
        if which is None:
            continue
        mask_a = a.mask() if spec.coverage else None
        mask_b = b.mask() if spec.coverage else None
        demands.extend(
            tree_ted_demands(a, b, which, mask_a, mask_b, spec.include_system)
        )
    if demands:
        ted_many(demands)


def divergence_task(task: tuple[IndexedCodebase, IndexedCodebase, MetricSpec]) -> float:
    """One model pair's divergence (engine task form), keyed by
    :func:`pair_task_key`; either orientation of the pair gives the same
    value."""
    a, b, spec = task
    return divergence(a, b, spec)


#: Alias kept only because ``bench_e2e/layers.py`` wraps this name; remove
#: it together with that wrapper.
divergence_pair_task = divergence_task


def hash_demand_trees(tasks: Sequence[tuple]) -> None:
    """Memoise the structural hash of every tree of every codebase the
    :func:`divergence_task` demands read, before any of them runs.

    Stripped and masked tree copies inherit their source root's ``_shash``
    memo (the memo-copy bug in ROADMAP), so whether an original was hashed
    before its copies were made decides which TED key a copy gets — and,
    under a coverage mask, which value the cell reads and how many kernels
    run. The batch and serve surfaces have always hashed every original
    first; pinning that order keeps every value, TED key and kernel count
    until the memo copy is fixed.
    """
    for a, b, _spec in tasks:
        for cb in (a, b):
            for u in cb.units.values():
                for t in (u.t_src_pre, u.t_src_post, u.t_sem, u.t_sem_inlined, u.t_ir):
                    if t is not None:
                        cached_structural_hash(t)


# ---------------------------------------------------------------------------
# Task identity (serve memo and batcher keys)
# ---------------------------------------------------------------------------


def codebase_fingerprint(cb: IndexedCodebase, spec: MetricSpec) -> str:
    """Stable content identity of one codebase *as this spec compares it*.

    Digest over every representation a divergence evaluation can read:
    per-unit structural hashes of all five trees plus the line/source
    summaries, and — when the spec is coverage-filtered — the executed-line
    mask. Any reindex that changes a compared tree, a line count or the
    coverage data changes the fingerprint, which is what makes serve memo
    entries keyed by these fingerprints self-invalidating (same contract as
    the TED cache's structural-hash keys; see DESIGN.md).

    Fingerprints are memoised per (codebase, coverage-flag): the trees are
    frozen once indexed, exactly like the TED layer assumes.
    """
    memo = getattr(cb, "_fingerprints", None)
    if memo is None:
        memo = {}
        cb._fingerprints = memo
    cached = memo.get(spec.coverage)
    if cached is not None:
        return cached
    h = hashlib.sha256()
    h.update(f"{cb.app}/{cb.model}".encode())
    for role in cb.roles():
        u = cb.units[role]
        h.update(b"\x00")
        h.update(role.encode())
        h.update(b"1" if u.degraded else b"0")
        for t in (u.t_src_pre, u.t_src_post, u.t_sem, u.t_sem_inlined, u.t_ir):
            h.update(b"\x01")
            h.update(cached_structural_hash(t).encode() if t is not None else b"-")
        for lines in (u.sig_lines_pre, u.sig_lines_post):
            for f in sorted(lines):
                h.update(f.encode())
                h.update(str(sorted(lines[f])).encode())
        h.update(str(sorted(u.lloc_pre.items())).encode())
        h.update(str(sorted(u.lloc_post.items())).encode())
        for src in (u.source_lines_pre, u.source_lines_post):
            for line in src:
                h.update(b"\x02")
                h.update(line.encode())
    if spec.coverage:
        mask = cb.mask()
        h.update(b"\x03")
        h.update(mask.digest().encode() if mask is not None else b"-")
    fp = h.hexdigest()[:16]
    memo[spec.coverage] = fp
    return fp


def pair_task_key(a: IndexedCodebase, b: IndexedCodebase, spec: MetricSpec) -> str:
    """Serve-memo and batcher key of one model pair's divergence.

    Sorted like the TED cache's pair keys: the divergence is symmetric, so
    the pair is one unit of work regardless of orientation.
    """
    fa = codebase_fingerprint(a, spec)
    fb = codebase_fingerprint(b, spec)
    lo, hi = (fa, fb) if fa <= fb else (fb, fa)
    return f"pair:{spec.label}:{lo}:{hi}"


def divergence_row(
    base: IndexedCodebase,
    others: Sequence[IndexedCodebase],
    spec: MetricSpec,
    engine: Optional[DistanceEngine] = None,
) -> dict[str, float]:
    """Divergence of every model from ``base`` (one heatmap row)."""
    eng = engine if engine is not None else DistanceEngine()
    tasks = [(base, cb, spec) for cb in others]
    hash_demand_trees(tasks)
    values = eng.map_tasks(divergence_task, tasks, prepare=divergence_prepare)
    return {cb.model: v for cb, v in zip(others, values)}


def nearest(
    target: IndexedCodebase,
    others: Sequence[IndexedCodebase],
    spec: MetricSpec,
    engine: Optional[DistanceEngine] = None,
) -> list[tuple[float, str]]:
    """Every model ranked by divergence from ``target``: its
    :func:`divergence_row` sorted by ``(score, model)``. The CLI and serve
    ``nearest`` surfaces report the first k entries of this list."""
    row = divergence_row(target, others, spec, engine)
    return sorted((d, model) for model, d in row.items())


def matrix_demands(
    codebases: Sequence[IndexedCodebase], spec: MetricSpec
) -> tuple[list[tuple[int, int]], list[tuple]]:
    """Upper-triangle pair demand list of one divergence matrix.

    Returns ``(pairs, tasks)``: ``pairs`` are ``(i, j)`` index tuples,
    ``tasks`` the matching :func:`divergence_task` inputs, their trees
    already hashed (:func:`hash_demand_trees`). Shared by the batch path
    below and the serve layer's request batcher so both schedule the
    *same* work — the matrix a service assembles from these demands is
    bit-identical to the batch one.
    """
    n = len(codebases)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    tasks = [(codebases[i], codebases[j], spec) for i, j in pairs]
    hash_demand_trees(tasks)
    return pairs, tasks


def matrix_from_pair_values(
    n: int, pairs: Sequence[tuple[int, int]], values: Sequence[float]
) -> np.ndarray:
    """Assemble the dense symmetric matrix from one value per pair — the
    (deterministic) second half of :func:`divergence_matrix`."""
    m = np.zeros((n, n))
    for (i, j), d in zip(pairs, values):
        m[i, j] = m[j, i] = d
    return m


def divergence_matrix(
    codebases: Sequence[IndexedCodebase],
    spec: MetricSpec,
    engine: Optional[DistanceEngine] = None,
    index=None,
) -> np.ndarray:
    """Dense, symmetric divergence matrix over all model pairs (the paper's
    correlation-matrix step): one evaluation per unordered pair.

    The upper-triangle pair list is scheduled through ``engine`` (a default
    serial :class:`DistanceEngine` when none is given). Every pair is a pure
    function of its two codebases, so serial and parallel schedules produce
    bit-identical matrices. A pair whose chunk exhausts its retries in
    non-strict mode is a NaN cell.

    ``index`` (anything with a ``pin_pair(a, b) -> float | None`` method,
    such as :class:`repro.metricindex.PairPinner`) lets pairs whose value
    pins *exactly* from stored unit geometry (hash-identical matched
    units, unmatched size sums) skip the engine. Pinned values are
    bit-identical to evaluated ones by construction, so the matrix is
    unchanged (``index.matrix.pinned`` counts the skipped cells).
    """
    eng = engine if engine is not None else DistanceEngine()
    n = len(codebases)
    with obs.span("compare.matrix", metric=spec.label, models=n, jobs=eng.jobs):
        pairs, tasks = matrix_demands(codebases, spec)
        values = [
            index.pin_pair(codebases[i], codebases[j]) if index is not None else None
            for i, j in pairs
        ]
        live = [at for at, v in enumerate(values) if v is None]
        fresh = eng.map_tasks(
            divergence_task, [tasks[at] for at in live], prepare=divergence_prepare
        )
        for at, v in zip(live, fresh):
            values[at] = v
        obs.add("compare.pairs", len(pairs))
        return matrix_from_pair_values(n, pairs, values)
