"""The metric-space index: sub-quadratic nearest-model queries.

``/v1/nearest`` and ``silvervale nearest`` ask "which models are closest
to this one under a tree metric?" — the brute-force answer evaluates one
exact divergence per candidate, O(n) Zhang–Shasha sweeps per query. But
the underlying distance is a *metric*: per role, unit-cost TED
(extended with the empty tree for unmatched units — ``d(t, ∅) = size(t)``)
satisfies the triangle inequality, and the codebase distance ``D`` is the
role-wise sum of those metrics. So program space can be organised
geometrically: a vantage-point tree over the corpus (:mod:`.vptree`) gives
triangle bounds in raw-``D`` space, and the shared bound oracle
(:mod:`repro.distance.bounds`) gives cheap per-candidate lower bounds —
together they discard most candidates without any exact TED.

Scores vs. distances: the reported score is the *normalised divergence*
``D / dmax``, which is symmetric but not itself a metric (``dmax`` varies
per pair). The search therefore prunes in exact integer ``D`` space and
converts a ``D`` lower bound into a score lower bound by dividing by an
*upper* bound on the pair's ``dmax`` (exactly computable from stored unit
sizes) — monotone float division keeps every score bound admissible.

Bit-identity contract (gated by ``benchmarks/nearest_smoke.py`` and the
determinism harness): pruning only ever discards a candidate whose score
lower bound strictly exceeds the current k-th best *exact* score, so ties
always survive to exact evaluation; survivors are scored by the very same
``tree_distance`` floats the brute-force scan uses; the final ordering is
the brute scan's ``(score, model)`` sort. Counters:
``index.exact_calls``, ``index.pruned.triangle`` / ``.stats`` /
``.histogram`` / ``.sequence``, ``index.build.distances``,
``index.units.reinserted``, ``index.matrix.pinned``.
"""

from __future__ import annotations

import heapq
from bisect import insort
from dataclasses import dataclass, field, replace
from typing import Optional

from repro import obs
from repro.distance.bounds import BoundOracle, get_oracle, sequence_lower_bound
from repro.distance.ted import pair_dmax
from repro.metricindex import vptree
from repro.trees.hashing import cached_structural_hash
from repro.trees.stats import (
    cached_label_histogram,
    cached_tree_stats,
    histogram_lower_bound,
)
from repro.workflow.codebase import IndexedCodebase
from repro.workflow.comparer import (
    MetricSpec,
    codebase_fingerprint,
    parse_metric,
    _tree_kind,
)

_INF = float("inf")


def model_distance(
    a: IndexedCodebase, b: IndexedCodebase, spec: MetricSpec
) -> tuple[float, float]:
    """Raw ``(D, dmax)`` of one model pair — exactly the floats
    :func:`repro.metrics.treemetrics.tree_distance` produces, so an
    index-evaluated score can never drift from a brute-force one."""
    from repro.metrics.treemetrics import tree_distance

    which = _tree_kind(spec)
    if which is None:
        raise ValueError(f"{spec.label} is not a tree metric")
    mask_a = a.mask() if spec.coverage else None
    mask_b = b.mask() if spec.coverage else None
    return tree_distance(a, b, which, mask_a, mask_b, spec.include_system)


def unit_entries(cb: IndexedCodebase, spec: MetricSpec) -> dict[str, dict]:
    """Per-unit derived-tree geometry: ``role -> {hash, size, depth,
    leaves}`` of the tree *as this spec compares it* (post system-strip,
    post coverage-mask). Units whose derived tree is absent are omitted —
    mirroring exactly which pairs :func:`tree_distance` skips. Memoised on
    the codebase (frozen-tree contract)."""
    from repro.metrics.treemetrics import unit_trees

    memo = getattr(cb, "_vpentries", None)
    if memo is None:
        memo = {}
        cb._vpentries = memo
    key = (spec.label, spec.include_system)
    hit = memo.get(key)
    if hit is not None:
        return hit
    which = _tree_kind(spec)
    if which is None:
        raise ValueError(f"{spec.label} is not a tree metric")
    mask = cb.mask() if spec.coverage else None
    units: dict[str, dict] = {}
    for role in cb.roles():
        t = unit_trees(cb.units[role], which, mask, spec.include_system)
        if t is None:
            continue
        st = cached_tree_stats(t)
        units[role] = {
            "hash": cached_structural_hash(t),
            "size": st.size,
            "depth": st.depth,
            "leaves": st.leaves,
        }
    memo[key] = units
    return units


def _entry_dmax(ua: dict[str, dict], ub: dict[str, dict]) -> int:
    """Exact ``dmax`` of a pair from stored unit sizes (:func:`pair_dmax`
    per role, an absent side counting 0) — integer-for-integer what
    :func:`tree_distance` accumulates."""
    return sum(
        pair_dmax(ua[r]["size"] if r in ua else 0, ub[r]["size"] if r in ub else 0)
        for r in set(ua) | set(ub)
    )


def _entry_lower(ua: dict[str, dict], ub: dict[str, dict]) -> int:
    """Admissible ``D`` lower bound from stored geometry alone (the
    *stats* stage — zero tree access): unmatched units cost exactly their
    size; matched units with equal structural hashes cost exactly 0;
    differing matched units cost at least ``max(1, |Δsize|, |Δdepth|,
    |Δleaves|)``."""
    lb = 0
    for role in set(ua) | set(ub):
        a, b = ua.get(role), ub.get(role)
        if a is None:
            lb += b["size"]
        elif b is None:
            lb += a["size"]
        elif a["hash"] != b["hash"]:
            lb += max(
                1,
                abs(a["size"] - b["size"]),
                abs(a["depth"] - b["depth"]),
                abs(a["leaves"] - b["leaves"]),
            )
    return lb


class PairPinner:
    """Entry-level exact pinning: the cluster path's candidate pruning.

    A matrix cell can be pinned without any kernel when the oracle's
    cheap interval has width zero from stored geometry alone: every
    matched unit pair is hash-identical (TED exactly 0) and unmatched
    units cost exactly their size. The pinned value is bit-identical to
    what :func:`repro.workflow.comparer.divergence_task` would compute
    (integer sums and the same float division), so index-pruned matrices
    stay exact by construction. Counter: ``index.matrix.pinned``.
    """

    def __init__(self, spec: MetricSpec):
        self.spec = spec

    def pin_pair(self, a: IndexedCodebase, b: IndexedCodebase) -> Optional[float]:
        """The pair's divergence when it pins exactly, else ``None``."""
        if _tree_kind(self.spec) is None:
            return None
        ua = unit_entries(a, self.spec)
        ub = unit_entries(b, self.spec)
        if any(ua[r]["hash"] != ub[r]["hash"] for r in set(ua) & set(ub)):
            return None  # a real TED: not pinnable from geometry
        # with every matched pair hash-identical the stats bound is exact:
        # the unmatched units' sizes
        d, dmax = _entry_lower(ua, ub), _entry_dmax(ua, ub)
        obs.add("index.matrix.pinned")
        return float(d) / float(dmax) if dmax else 0.0


@dataclass
class NearestResult:
    """One query's answer plus its pruning ledger."""

    #: ``(score, model)`` ascending — the brute scan's exact ordering.
    neighbors: list[tuple[float, str]]
    #: exact evaluations and per-stage prune counts for this query
    stats: dict = field(default_factory=dict)


class MetricIndex(PairPinner):
    """A persistent VP-tree index over one app's models under one metric.

    ``models`` maps model name to ``{"fingerprint", "total", "units"}``
    (content fingerprint, total derived-tree size, per-unit geometry);
    ``root`` is the :mod:`.vptree` node. Everything serializes to plain
    dicts (:meth:`to_payload`) for the ``vpindex`` artifact namespace.
    """

    def __init__(
        self,
        app: str,
        spec: MetricSpec,
        models: Optional[dict[str, dict]] = None,
        root: Optional[dict] = None,
    ):
        super().__init__(spec)
        self.app = app
        self.models = models if models is not None else {}
        self.root = root

    # -- construction / persistence -----------------------------------------

    @classmethod
    def build(
        cls, app: str, codebases: dict[str, IndexedCodebase], spec: MetricSpec
    ) -> "MetricIndex":
        """Build from scratch over ``codebases`` (name → codebase)."""
        idx = cls(app, spec)
        for name in sorted(codebases):
            idx.models[name] = idx._entry(codebases[name])
        dist = idx._dist_fn(codebases)
        idx.root = vptree.build(sorted(codebases), dist, idx._weight)
        return idx

    def to_payload(self) -> dict:
        return {
            "app": self.app,
            "metric": self.spec.label,
            "include_system": bool(self.spec.include_system),
            "models": self.models,
            "tree": self.root,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "MetricIndex":
        spec = replace(
            parse_metric(payload["metric"]),
            include_system=bool(payload["include_system"]),
        )
        models = payload["models"]
        if not isinstance(models, dict):
            raise ValueError("malformed metric index payload: models")
        for entry in models.values():
            if not isinstance(entry, dict) or "units" not in entry or "total" not in entry:
                raise ValueError("malformed metric index payload: model entry")
        tree = payload.get("tree")
        names = set(models)
        if names and (tree is None or set(vptree.members(tree)) != names):
            raise ValueError("malformed metric index payload: tree/models disagree")
        return cls(payload["app"], spec, models=models, root=tree)

    # -- internals -----------------------------------------------------------

    def _entry(self, cb: IndexedCodebase) -> dict:
        units = unit_entries(cb, self.spec)
        return {
            "fingerprint": codebase_fingerprint(cb, self.spec),
            "total": sum(u["size"] for u in units.values()),
            "units": units,
        }

    def _weight(self, name: str) -> int:
        return self.models[name]["total"]

    def _dist_fn(self, codebases: dict[str, IndexedCodebase]):
        def dist(a: str, b: str) -> int:
            d, _dmax = model_distance(codebases[a], codebases[b], self.spec)
            obs.add("index.build.distances")
            return int(d)

        return dist

    # -- incremental maintenance ---------------------------------------------

    def refresh(self, codebases: dict[str, IndexedCodebase]) -> dict[str, int]:
        """Reconcile the index with the live corpus; re-insert only what
        changed. Returns ``{"added", "removed", "models_reinserted",
        "units_reinserted"}`` — the touch-one gate asserts
        ``units_reinserted == 1``.

        A model whose content fingerprint moved but whose derived-tree
        geometry did not (a comment-only edit) refreshes its stored
        fingerprint without touching the tree: the index is keyed by what
        the metric *compares*, and a comment is trivia to every tree.
        """
        counts = {"added": 0, "removed": 0, "models_reinserted": 0, "units_reinserted": 0}
        stale = sorted(set(self.models) - set(codebases))
        changed: list[str] = []
        added: list[str] = []
        for name in sorted(codebases):
            entry = self._entry(codebases[name])
            old = self.models.get(name)
            if old is None:
                added.append(name)
                counts["units_reinserted"] += len(entry["units"])
            elif old["units"] != entry["units"]:
                changed.append(name)
                roles = set(old["units"]) | set(entry["units"])
                counts["units_reinserted"] += sum(
                    1
                    for r in roles
                    if old["units"].get(r, {}).get("hash")
                    != entry["units"].get(r, {}).get("hash")
                )
            self.models[name] = entry
        counts["added"] = len(added)
        counts["removed"] = len(stale)
        counts["models_reinserted"] = len(changed)
        for name in stale:
            del self.models[name]
        dist = self._dist_fn(codebases)
        if stale:
            # a vanished model may sit anywhere in the tree and its
            # distances cannot be re-derived; rebuild over the survivors
            # (unchanged pairs replay from the TED memo/disk cache)
            self.root = vptree.build(sorted(self.models), dist, self._weight)
        else:
            for name in changed:
                self.root = vptree.remove(self.root, name, dist, self._weight)
                self.root = vptree.insert(self.root, name, dist, self._weight)
            for name in added:
                self.root = vptree.insert(self.root, name, dist, self._weight)
        if counts["units_reinserted"]:
            obs.add("index.units.reinserted", counts["units_reinserted"])
        return counts

    # -- query ---------------------------------------------------------------

    def query(
        self,
        target: IndexedCodebase,
        codebases: dict[str, IndexedCodebase],
        k: int,
        oracle: Optional[BoundOracle] = None,
    ) -> NearestResult:
        """k nearest models to ``target`` (itself excluded), bit-identical
        to the brute-force scan's ``(score, model)`` ordering.

        Best-first search over the VP tree: subtrees are cut by triangle
        bounds in ``D`` space, surviving leaf candidates by the oracle's
        staged lower bounds (stats from stored geometry, then histogram
        and capped Levenshtein on the actual trees), and only survivors
        pay an exact :func:`tree_distance`. Pruning is strict-inequality
        only, so ties always reach exact evaluation. Passing a
        :class:`~repro.distance.bounds.BruteForceOracle` disables the
        candidate stages (the ``--brute-force`` oracle mode).
        """
        orc = oracle if oracle is not None else get_oracle()
        exclude = target.model
        tgt_units = unit_entries(target, self.spec)
        stats = {
            "exact_calls": 0,
            "pruned": {"triangle": 0, "stats": 0, "histogram": 0, "sequence": 0},
            "candidates": max(0, len([m for m in self.models if m != exclude])),
        }
        best: list[tuple[float, str]] = []  # kept sorted by (score, model)

        def tau() -> float:
            return best[k - 1][0] if len(best) >= k else _INF

        def exact(name: str) -> float:
            d, dmax = model_distance(target, codebases[name], self.spec)
            stats["exact_calls"] += 1
            obs.add("index.exact_calls")
            score = d / dmax if dmax else 0.0
            if name != exclude:
                insort(best, (score, name))
            return d

        def prune(stage: str, n: int = 1) -> None:
            stats["pruned"][stage] += n
            obs.add(f"index.pruned.{stage}", n)

        def leaf_survives(name: str) -> bool:
            """Staged candidate check; False when some admissible score
            lower bound strictly exceeds the current k-th best score."""
            if not orc.prunes:
                return True  # brute-force oracle: every candidate goes exact
            t = tau()
            if t == _INF:
                return True
            entry = self.models[name]
            dmax_pair = _entry_dmax(tgt_units, entry["units"])
            if not dmax_pair:
                return True  # both empty: exact score is 0.0, never prunable
            lb = _entry_lower(tgt_units, entry["units"])
            if lb / dmax_pair > t:
                prune("stats")
                return False
            # refine matched differing pairs on the actual trees
            pairs = self._tree_pairs(target, codebases[name], entry)
            if pairs is None:
                return True
            base = lb - sum(p[2] for p in pairs)  # unmatched + hash-equal part
            cap = int(t * dmax_pair) + 2  # any-stage bail budget (valid: over-capping only weakens)
            lbs = [
                max(p[2], histogram_lower_bound(cached_label_histogram(p[0]), cached_label_histogram(p[1])))
                for p in pairs
            ]
            if (base + sum(lbs)) / dmax_pair > t:
                prune("histogram")
                return False
            for i, (ta, tb, _lb0) in enumerate(pairs):
                lbs[i] = max(lbs[i], sequence_lower_bound(ta, tb, cap=cap))
                if (base + sum(lbs)) / dmax_pair > t:
                    prune("sequence")
                    return False
            return True

        if self.root is None:
            return NearestResult(neighbors=[], stats=stats)
        sx = sum(u["size"] for u in tgt_units.values())
        heap: list[tuple[float, str, dict]] = [(0.0, self.root["v"], self.root)]
        while heap:
            prio, _vname, node = heapq.heappop(heap)
            t = tau()
            if prio > t:
                prune("triangle", sum(1 for m in vptree.members(node) if m != exclude))
                continue
            v = node["v"]
            if not node["bands"]:
                if v != exclude and leaf_survives(v):
                    exact(v)
                continue
            # an internal vantage must be evaluated exactly regardless of
            # candidate bounds: its D anchors the children's triangle bounds
            if v == exclude and self.models[v]["units"] == tgt_units:
                d_v = 0.0  # the target itself: every unit pair is hash-identical
            else:
                d_v = exact(v)
            for band in node["bands"]:
                lb_d = max(0.0, band["lo"] - d_v, d_v - band["hi"])
                dmax_ub = sx + band["max_w"]
                score_lb = lb_d / dmax_ub if dmax_ub else 0.0
                heapq.heappush(heap, (score_lb, band["node"]["v"], band["node"]))
        return NearestResult(neighbors=best[: max(0, k)], stats=stats)

    def _tree_pairs(self, target: IndexedCodebase, cand: IndexedCodebase, entry: dict):
        """Matched differing unit-tree pairs ``(ta, tb, stats_lb)`` for
        candidate-stage refinement, or ``None`` when a tree is unexpectedly
        absent (stale entry: skip refinement, fall through to exact)."""
        from repro.metrics.treemetrics import unit_trees

        which = _tree_kind(self.spec)
        mask_t = target.mask() if self.spec.coverage else None
        mask_c = cand.mask() if self.spec.coverage else None
        tgt_units = unit_entries(target, self.spec)
        out = []
        for role in set(tgt_units) & set(entry["units"]):
            ea, eb = tgt_units[role], entry["units"][role]
            if ea["hash"] == eb["hash"]:
                continue
            ta = unit_trees(target.units[role], which, mask_t, self.spec.include_system)
            ub_unit = cand.units.get(role)
            tb = (
                unit_trees(ub_unit, which, mask_c, self.spec.include_system)
                if ub_unit is not None
                else None
            )
            if ta is None or tb is None:
                return None
            lb0 = max(
                1,
                abs(ea["size"] - eb["size"]),
                abs(ea["depth"] - eb["depth"]),
                abs(ea["leaves"] - eb["leaves"]),
            )
            out.append((ta, tb, lb0))
        return out

    def __len__(self) -> int:
        return len(self.models)


def nearest_via_index(
    index: MetricIndex,
    target: IndexedCodebase,
    codebases: dict[str, IndexedCodebase],
    k: int,
    oracle: Optional[BoundOracle] = None,
) -> NearestResult:
    """Query helper with the span/counter envelope the CLI and serve share."""
    with obs.span(
        "index.query", app=index.app, metric=index.spec.label, model=target.model, k=k
    ):
        return index.query(target, codebases, k, oracle=oracle)
