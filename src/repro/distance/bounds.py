"""The bound-oracle layer: admissible TED bounds for the pruning cascade.

Kept only because ``bench_e2e/layers.py`` imports :class:`BoundOracle`;
the cascade is no longer on the TED path (see
:mod:`repro.distance.cascade`). Remove it with that wrapper (ROADMAP
items 1 and 3).

:mod:`repro.distance.cascade` consults one oracle object for its cheap,
admissible bounds, staged by cost, so an admissibility bug could only ever
exist in one place:

* :meth:`BoundOracle.lower_stages` — lower bounds in increasing cost
  order (hash-eq → ``TreeStats`` → label-histogram → banded Levenshtein),
  each *admissible*: never above the exact unit-cost TED;
* :meth:`BoundOracle.upper` — the greedy top-down alignment upper bound
  (a concrete valid edit script, so never below the exact TED).

Admissibility contract (pinned in DESIGN.md §"Pruning cascade contract" and
property-tested in ``tests/distance/test_bounds.py``): for every tree pair
and every stage, ``lower <= TED <= upper`` — including cap-budgeted calls,
where a bail-out must still return a valid lower bound (possibly ``>=
cap``, which is precisely what proves the cap). :class:`BruteForceOracle`
is the null oracle (no lower bounds, trivial upper bound): installing it
turns the cascade off, which is how the cascade-off A/B checks are wired.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.distance.levenshtein import levenshtein_bounded
from repro.trees.hashing import cached_structural_hash
from repro.trees.node import Node
from repro.trees.stats import (
    cached_label_histogram,
    cached_tree_stats,
    histogram_lower_bound,
)

#: Budget (in child-alignment DP cells) for the greedy upper bound; past it
#: the bound degrades to the trivial-but-valid ``size1 + size2``.
UB_MAX_CELLS = 50_000


def preorder_labels(root: Node) -> tuple:
    """Preorder label sequence memoised on the root's attrs (``_plabels``);
    same frozen-tree contract as :func:`cached_tree_stats`."""
    seq = root.attrs.get("_plabels")
    if seq is None:
        seq = tuple(n.label for n in root.preorder())
        root.attrs["_plabels"] = seq
    return seq


# -- upper bound --------------------------------------------------------------


def _subtree_size(n: Node, sizes: dict) -> int:
    s = sizes.get(id(n))
    if s is None:
        s = n.size()
        sizes[id(n)] = s
    return s


def upper_bound(t1: Node, t2: Node, max_cells: int = UB_MAX_CELLS) -> int:
    """A valid upper bound on unit-cost TED from a greedy top-down mapping.

    Aligns the two root's child sequences with an edit DP whose surrogate
    match cost is ``|Δlabel| + |Δsize|`` (zero for structurally identical
    subtrees), reads matched pairs back from the DP, and recurses only on
    those. The resulting node mapping preserves ancestry and sibling order,
    so it is a legal TED edit script and its cost bounds TED from above.

    Pure positional alignment is defeated by wrapper insertions (an OpenMP
    port nesting the serial body under a pragma node), so each level also
    tries *unwrap* moves: map the whole of one root into a dominant child of
    the other, paying the size of the stripped siblings. The cheaper option
    wins.

    ``max_cells`` caps total child-alignment DP work; on overrun the bound
    for that subproblem degrades to ``size(a) + size(b)`` (delete one tree,
    insert the other — trivially valid), keeping worst-case cost linear-ish.
    """
    sizes: dict = {}
    memo: dict = {}
    cells = [0]

    def ub(a: Node, b: Node) -> int:
        key = (id(a), id(b))
        r = memo.get(key)
        if r is not None:
            return r
        if cached_structural_hash(a) == cached_structural_hash(b):
            memo[key] = 0
            return 0
        ka, kb = a.children, b.children
        n1, n2 = len(ka), len(kb)
        cost = 1 if a.label != b.label else 0
        if n1 == 0:
            r = cost + sum(_subtree_size(c, sizes) for c in kb)
            memo[key] = r
            return r
        if n2 == 0:
            r = cost + sum(_subtree_size(c, sizes) for c in ka)
            memo[key] = r
            return r
        cells[0] += n1 * n2
        if cells[0] > max_cells:
            r = _subtree_size(a, sizes) + _subtree_size(b, sizes)
            memo[key] = r
            return r

        def sur(x: Node, y: Node) -> int:
            if cached_structural_hash(x) == cached_structural_hash(y):
                return 0
            lbl = 1 if x.label != y.label else 0
            return lbl + abs(_subtree_size(x, sizes) - _subtree_size(y, sizes))

        D = [[0] * (n2 + 1) for _ in range(n1 + 1)]
        for i in range(1, n1 + 1):
            D[i][0] = D[i - 1][0] + _subtree_size(ka[i - 1], sizes)
        for j in range(1, n2 + 1):
            D[0][j] = D[0][j - 1] + _subtree_size(kb[j - 1], sizes)
        for i in range(1, n1 + 1):
            row = D[i]
            up = D[i - 1]
            ci = ka[i - 1]
            csz = _subtree_size(ci, sizes)
            for j in range(1, n2 + 1):
                row[j] = min(
                    up[j] + csz,
                    row[j - 1] + _subtree_size(kb[j - 1], sizes),
                    up[j - 1] + sur(ci, kb[j - 1]),
                )
        # Traceback: which children the surrogate DP chose to match.
        i, j = n1, n2
        matched: list[tuple[Node, Node]] = []
        while i > 0 and j > 0:
            if D[i][j] == D[i - 1][j - 1] + sur(ka[i - 1], kb[j - 1]):
                matched.append((ka[i - 1], kb[j - 1]))
                i -= 1
                j -= 1
            elif D[i][j] == D[i - 1][j] + _subtree_size(ka[i - 1], sizes):
                i -= 1
            else:
                j -= 1
        used_a = {id(x) for x, _ in matched}
        used_b = {id(y) for _, y in matched}
        tot = cost
        for c in ka:
            if id(c) not in used_a:
                tot += _subtree_size(c, sizes)
        for c in kb:
            if id(c) not in used_b:
                tot += _subtree_size(c, sizes)
        for x, y in matched:
            tot += ub(x, y)
        best = tot
        # Unwrap moves (dominant child, or an only child).
        sb = _subtree_size(b, sizes)
        for c in kb:
            cs = _subtree_size(c, sizes)
            if cs * 2 >= sb or n2 == 1:
                v = (sb - cs) + ub(a, c)
                if v < best:
                    best = v
        sa = _subtree_size(a, sizes)
        for c in ka:
            cs = _subtree_size(c, sizes)
            if cs * 2 >= sa or n1 == 1:
                v = (sa - cs) + ub(c, b)
                if v < best:
                    best = v
        memo[key] = best
        return best

    return ub(t1, t2)


# -- lower bounds -------------------------------------------------------------


def stats_lower_bound(t1: Node, t2: Node) -> int:
    """max(|Δsize|, |Δdepth|, |Δleaves|): each unit edit moves every one of
    these tree statistics by at most one, so their gaps bound TED."""
    s1 = cached_tree_stats(t1)
    s2 = cached_tree_stats(t2)
    return max(
        abs(s1.size - s2.size),
        abs(s1.depth - s2.depth),
        abs(s1.leaves - s2.leaves),
    )


def sequence_lower_bound(t1: Node, t2: Node, cap: int) -> int:
    """Levenshtein over preorder label strings, allowed to bail at ``cap``.

    Each tree edit is one edit on the preorder label string (delete/insert
    removes/adds one label; relabel substitutes one; splicing a deleted
    node's children into its place preserves the order of all other
    labels), so string edit distance <= TED. With ``cap`` set to the
    current upper bound, a bail-out (return >= cap) proves TED == cap.
    """
    return levenshtein_bounded(preorder_labels(t1), preorder_labels(t2), cap)


# -- the oracle ---------------------------------------------------------------


class BoundOracle:
    """Admissible unit-cost TED bounds, staged cheapest-first.

    One instance is stateless and thread-compatible (every memo lives on
    the frozen trees themselves), so a single module-level default serves
    the batch CLI and the serve daemon alike.
    """

    #: Stage names in evaluation order; every ``ted.pruned.<stage>`` counter
    #: uses exactly these labels.
    STAGES = ("hash", "stats", "histogram", "sequence")

    #: Whether this oracle's lower bounds are usable for pruning at all —
    #: the null oracle sets this False so consumers can skip its (empty)
    #: stage walk entirely.
    prunes = True

    ub_max_cells = UB_MAX_CELLS

    def upper(self, t1: Node, t2: Node, max_cells: Optional[int] = None) -> int:
        """Greedy upper bound (never below the exact TED)."""
        return upper_bound(t1, t2, max_cells if max_cells is not None else self.ub_max_cells)

    def lower_stages(
        self, t1: Node, t2: Node, cap: Optional[int] = None
    ) -> Iterator[tuple[str, int]]:
        """Yield ``(stage, lb)`` with a nondecreasing best-so-far ``lb``.

        Stops early once ``lb >= cap`` (the caller has what it needs) or —
        for the hash stage — once equality pins the distance at exactly 0.
        ``cap`` also budgets the banded Levenshtein stage; without a cap
        that stage runs un-banded so the final bound is the full string
        edit distance.
        """
        if cached_structural_hash(t1) == cached_structural_hash(t2):
            yield "hash", 0  # identical trees: lb 0 is tight, nothing to refine
            return
        lb = stats_lower_bound(t1, t2)
        yield "stats", lb
        if cap is not None and lb >= cap:
            return
        lb = max(
            lb,
            histogram_lower_bound(
                cached_label_histogram(t1), cached_label_histogram(t2)
            ),
        )
        yield "histogram", lb
        if cap is not None and lb >= cap:
            return
        budget = cap if cap is not None else len(preorder_labels(t1)) + len(preorder_labels(t2)) + 1
        lb = max(lb, sequence_lower_bound(t1, t2, cap=budget))
        yield "sequence", lb

    def lower(self, t1: Node, t2: Node, cap: Optional[int] = None) -> int:
        """Best available lower bound (early exit at ``cap``)."""
        best = 0
        for _stage, lb in self.lower_stages(t1, t2, cap):
            best = lb
        return best


class BruteForceOracle(BoundOracle):
    """The null oracle: no lower bounds, trivial upper bound.

    Installing it (or passing it explicitly) makes the cascade stop
    pruning and evaluate every pair exactly, which is the reference
    behaviour the bit-identity gates compare against.
    """

    prunes = False

    def upper(self, t1: Node, t2: Node, max_cells: Optional[int] = None) -> int:
        return t1.size() + t2.size()  # delete one tree, insert the other

    def lower_stages(
        self, t1: Node, t2: Node, cap: Optional[int] = None
    ) -> Iterator[tuple[str, int]]:
        return iter(())


_ORACLE: BoundOracle = BoundOracle()


def get_oracle() -> BoundOracle:
    """The process-wide oracle the cascade consults by default."""
    return _ORACLE


def set_oracle(oracle: BoundOracle) -> BoundOracle:
    """Swap the process-wide oracle (A/B benchmarks); returns the old one."""
    global _ORACLE
    prev = _ORACLE
    _ORACLE = oracle
    return prev
