"""Zhang–Shasha tree edit distance: the unit-cost row-sweep kernel and the
generic-cost reference.

The paper uses APTED (Pawlik & Augsten) for robustness at scale; at mini-app
scale the classic Zhang–Shasha algorithm [Zhang & Shasha 1989] is exact,
simpler, and fast enough once the forest DP is vectorised. TED semantics
(minimal insert/delete/relabel cost) are algorithm-independent, so the
metric itself is unchanged.

The classic formulation loops over keyroot *pairs*; real ASTs have hundreds
of keyroots per side, so per-pair Python overhead dominates. The unit-cost
kernel restructures the computation: for each keyroot of T1 and each DP
row, it sweeps the forest-distance columns of *every* keyroot of T2 at once
in a handful of NumPy operations.

Key devices
-----------
* **Wide layout** — the forest-DP matrices of all kept keyroot-2 segments
  lie side by side in one ``(isz × W)`` array per swept keyroot-1 (``W`` =
  total columns incl. each segment's empty-prefix column), ordered by wave.
* **Scan domain** — ``fd`` stores each forest distance minus ``dj + di``
  plus a per-segment offset ``(S - rank)·BIG``. There the delete option
  is the previous row itself and the insert option ``row[j] =
  min(cand[j], row[j-1]+1)`` is ``np.minimum.accumulate``; the offsets
  stop values leaking across segment boundaries. A partial row (T1
  subforest not a whole subtree) is one full-width pass of four calls:
  gather the left-forest row, add the ``treedist`` row, take the min with
  the previous row, accumulate. Empty-prefix columns read a sentinel.
* **Fused whole rows** — in rows where the T1 subforest is a whole
  subtree, partial columns read ``treedist`` entries that whole columns of
  *nested* keyroot-2 segments produce in the same row. Segments are
  therefore grouped into waves by keyroot nesting height and processed
  innermost-first, each wave one gather from ``fd[di-1:di+1]`` (relabel
  terms from the previous row, subtree terms from earlier waves of the
  current row, empty prefixes from a sentinel column) plus three calls.
  The row's ``treedist`` entries are written once, after its last wave.
* **Twin keyroots** — a keyroot whose subtree repeats an earlier
  keyroot's labels and shape is swept once (:func:`_twin_keyroots`). T1
  twins are skipped and T2 twin segments leave the layout; every read of
  one of their nodes goes through a ``canon`` map to the first
  occurrence. The TED of two subtrees depends only on their content, so
  this is exact. Waves are numbered over *all* T2 keyroots before twins
  are dropped, so the subtree term a kept segment reads is always swept
  in an earlier wave.
* **Decomposition choice** — the leftmost-path decomposition computes
  ``L(T1)·L(T2)`` cells, the mirrored (rightmost-path) one ``R(T1)·R(T2)``.
  :func:`_flatten_pair` reads both off the leftmost-path flattening and,
  when the mirrored product is smaller, re-flattens both trees with their
  children visited in reverse. Unit-cost TED is unchanged when both trees
  are mirrored, so the distance is exact either way; ties stay left.

Exact — validated against the brute-force oracle and the generic-cost
kernel (with unit costs) by the property suite.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro import obs
from repro.trees.node import Node

_BIG = np.int64(1) << 24


def _keyroot_heights(lmld: np.ndarray, kr: np.ndarray) -> np.ndarray:
    """Nesting height of each keyroot in ``kr`` (ascending): 0 when no
    other keyroot lies in its subtree, else one more than the tallest that
    does. The keyroots nested in ``k`` are those in ``[lmld[k], k)``."""
    lo = np.searchsorted(kr, lmld[kr]).tolist()
    h = [0] * len(kr)
    for r in range(len(kr)):
        if lo[r] < r:
            h[r] = max(h[lo[r] : r]) + 1
    return np.asarray(h, dtype=np.int64)


def _twin_keyroots(lab: np.ndarray, lmld: np.ndarray, keyroots: list[int]):
    """``(keep, canon)`` for one flattened tree.

    Two keyroots are twins when their subtrees carry the same labels in
    the same shape: the same label ids and leftmost-leaf offsets over
    their postorder spans. ``keep`` marks the first keyroot of each class.
    ``canon`` maps every node of a later twin to the matching node of the
    first occurrence and every other node to itself. Keyroots ascend, so
    an outer twin is mapped after the twins nested in it and copies the
    first occurrence's own mapping: no canonical node lies in a skipped
    subtree.
    """
    canon = np.arange(len(lab), dtype=np.int64)
    keep = np.ones(len(keyroots), dtype=bool)
    first: dict[tuple[bytes, bytes], int] = {}
    for r, k in enumerate(keyroots):
        lk = int(lmld[k])
        shape = (lab[lk : k + 1].tobytes(), (lmld[lk : k + 1] - lk).tobytes())
        f = first.setdefault(shape, k)
        if f != k:
            keep[r] = False
            canon[lk : k + 1] = canon[f - (k - lk) : f + 1]
    return keep, canon


class _Tree2Layout:
    """Wide-column layout of the second tree's keyroot segments.

    Segment ``j`` holds ``jsz = |subtree(j)| + 1`` columns (``dj = 0`` is
    the empty prefix). Segments are ordered by wave, the keyroot nesting
    height over *all* keyroots, so each wave is one contiguous column
    range; ``keep`` (default: every keyroot) drops twin segments after the
    heights are taken.
    """

    def __init__(
        self,
        l2: np.ndarray,
        lab2: np.ndarray,
        keyroots: list[int],
        keep: np.ndarray | None = None,
    ):
        self.lab2 = lab2
        kr = np.asarray(keyroots, dtype=np.int64)
        heights = _keyroot_heights(l2, kr)
        if keep is not None:
            kr, heights = kr[keep], heights[keep]
        order = np.argsort(heights, kind="stable")
        kr, heights = kr[order], heights[order]
        self.keyroots = kr.tolist()
        lkr = l2[kr]
        jsz = kr - lkr + 2
        starts = np.cumsum(jsz) - jsz
        self.W = W = int(jsz.sum())
        nseg = len(kr)
        self.col_seg = np.repeat(np.arange(nseg, dtype=np.int64), jsz)
        self.col_dj = np.arange(W, dtype=np.int64) - starts[self.col_seg]
        lj = lkr[self.col_seg]
        j1 = lj + self.col_dj - 1
        first = self.col_dj == 0
        j1[first] = -1
        lj1 = l2[np.maximum(j1, 0)]
        self.col_j1 = j1
        self.col_whole = ~first & (lj1 == lj)
        # fd column of the forest left of subtree(j1) (the segment's own
        # empty prefix for dj = 0)
        self.col_left = starts[self.col_seg] + np.where(first, 0, lj1 - lj)
        # scan offsets: earlier (left) segments get larger offsets so their
        # values lose the running min beyond their boundary
        self.scan_off = (np.int64(nseg) - self.col_seg) * _BIG
        self.n_waves = int(heights[-1]) + 1 if nseg else 0
        seg_bounds = np.searchsorted(heights, np.arange(self.n_waves + 1))
        col_bounds = np.append(starts, W)[seg_bounds].tolist()
        self.wave_bounds = list(zip(col_bounds[:-1], col_bounds[1:]))


def _flatten_arrays(
    root, vocab: dict | None = None, mirror: bool = False
) -> tuple[np.ndarray, np.ndarray, list[int], dict]:
    """Postorder label ids, leftmost-leaf indices and keyroots for one tree.

    Keyroots are the nodes that start a new forest DP: a node is a keyroot
    iff no proper ancestor shares its leftmost leaf. ``vocab`` interns
    labels to ids; pass the dict returned for the first tree when
    flattening the second so label ids stay comparable across the pair.
    ``mirror`` flattens the tree with every node's children reversed (the
    rightmost-path decomposition of the original) without copying it.
    """
    if vocab is None:
        vocab = {}
    lmld: list[int] = []
    stack = [(root, 0)]
    leftmost: dict[int, int] = {}
    order_len = 0
    lab_ids: list[int] = []
    first = -1 if mirror else 0  # the child visited first in postorder
    while stack:
        node, state = stack.pop()
        if state == 0:
            stack.append((node, 1))
            kids = node.children
            for c in kids if mirror else reversed(kids):
                stack.append((c, 0))
        else:
            idx = order_len
            order_len += 1
            lm = leftmost[id(node.children[first])] if node.children else idx
            leftmost[id(node)] = lm
            lab_ids.append(vocab.setdefault(node.label, len(vocab)))
            lmld.append(lm)
    l_arr = np.asarray(lmld, dtype=np.int64)
    seen: dict[int, int] = {}
    for i in range(order_len):
        seen[lmld[i]] = i
    keyroots = sorted(seen.values())
    return np.asarray(lab_ids, dtype=np.int64), l_arr, keyroots, vocab


def _keyroot_cells(lmld: np.ndarray, keyroots: list[int]) -> int:
    """``L(T)``: the summed subtree sizes of a tree's keyroots, i.e. the DP
    rows (or columns) one side contributes to a row sweep."""
    kr = np.asarray(keyroots, dtype=np.int64)
    return int((kr - lmld[kr] + 1).sum())


def _mirror_cells(lmld: np.ndarray) -> int:
    """``R(T)`` of a tree flattened on its leftmost path: ``L`` of its
    mirror image, the summed subtree sizes of the root and of every node
    with a right sibling. In postorder a non-root node ``i`` has a right
    sibling iff node ``i+1`` is a leaf."""
    n = len(lmld)
    i = np.arange(n - 1)
    has_right = lmld[1:] == i + 1
    return n + int((i - lmld[:-1] + 1)[has_right].sum())


def _flatten_pair(t1: Node, t2: Node) -> tuple[tuple, int, int]:
    """Flatten a pair on the decomposition path with fewer DP cells.

    Returns ``((lab1, l1, kr1, lab2, l2, kr2), L(T1)·L(T2), R(T1)·R(T2))``.
    The arrays are the leftmost-path flattening unless the mirrored
    (rightmost-path) product is strictly smaller; the two trees share one
    label vocabulary either way.
    """
    lab1, l1, kr1, vocab = _flatten_arrays(t1)
    lab2, l2, kr2, _ = _flatten_arrays(t2, vocab)
    left = _keyroot_cells(l1, kr1) * _keyroot_cells(l2, kr2)
    right = _mirror_cells(l1) * _mirror_cells(l2)
    if right < left:
        lab1, l1, kr1, _ = _flatten_arrays(t1, vocab, mirror=True)
        lab2, l2, kr2, _ = _flatten_arrays(t2, vocab, mirror=True)
    return (lab1, l1, kr1, lab2, l2, kr2), left, right


def zhang_shasha_distance(t1: Node, t2: Node) -> int:
    """Exact unit-cost TED between ordered trees ``t1`` and ``t2``.

    Reports ``ted.zs.calls``, ``zs.keyroot_pairs`` (``|kr1|·|kr2|``),
    ``zs.dp_cells`` (the cells the sweep computes on the path it took,
    ``min(L(T1)·L(T2), R(T1)·R(T2))``), both products as
    ``zs.cells_left`` / ``zs.cells_right`` and ``zs.swept_cells`` (the part
    of ``zs.dp_cells`` left once twin keyroots are skipped) when a
    collector is installed.
    """
    (lab1, l1, kr1, lab2, l2, kr2), left, right = _flatten_pair(t1, t2)
    if not obs.enabled():
        return _row_sweep(lab1, l1, kr1, lab2, l2, kr2)[0]
    cells = _keyroot_cells(l1, kr1) * _keyroot_cells(l2, kr2)
    obs.add("ted.zs.calls")
    obs.add("zs.keyroot_pairs", len(kr1) * len(kr2))
    obs.add("zs.dp_cells", cells)
    obs.add("zs.cells_left", left)
    obs.add("zs.cells_right", right)
    with obs.span("zs", cells=cells):
        d, swept = _row_sweep(lab1, l1, kr1, lab2, l2, kr2)
    obs.add("zs.swept_cells", swept)
    return d


#: Scan-domain sentinel: above every value the sweep compares against it
#: (those stay below ``(segments + 1)·_BIG``), with room to add offsets.
_SENTINEL = np.int64(1) << 60


def _row_sweep(lab1, l1, kr1, lab2, l2, kr2) -> tuple[int, int]:
    """The row-sweep DP over one flattened pair: ``(distance, swept)``,
    where ``swept`` counts the DP cells of the keyroots actually swept.

    ``fd`` holds each forest distance ``d`` of row ``di``, column ``c`` in
    the scan domain ``d - K[c] - di``, ``K = dj - scan_off``. There the
    delete option is the previous row itself and the insert option is the
    segmented running min, so a partial row is four NumPy calls. Column
    ``W`` of ``fd`` is a sentinel. ``treedist`` has one row per node of T1
    outside twins, in fd column order: entry ``c`` holds the TED of that
    node and ``canon2[j1(c)]``, shifted into the domain of the partial rows
    that add it (the sentinel at empty prefixes).
    """
    n = len(lab1)
    m = len(lab2)
    if n == 0 or m == 0:
        return n + m, 0

    keep1, canon1 = _twin_keyroots(lab1, l1, kr1)
    keep2, canon2 = _twin_keyroots(lab2, l2, kr2)
    lay = _Tree2Layout(l2, lab2, kr2, keep2)
    W = lay.W
    cols = np.arange(W, dtype=np.int64)
    dj = lay.col_dj
    j1 = np.maximum(lay.col_j1, 0)
    whole = lay.col_whole
    first = dj == 0
    part = ~first & ~whole
    left = lay.col_left
    K = dj - lay.scan_off
    # tdcol: the fd column where a whole row of node x holds TED(x,
    # canon2[j1]); W (the sentinel) for empty prefixes
    node_col = np.zeros(m, dtype=np.int64)
    node_col[j1[whole]] = cols[whole]
    tdcol = np.where(first, W, node_col[canon2[j1]])
    Ktd = np.append(K, 0)[tdcol]
    # treedist row of x = fd[di, tdcol] + E (its di and the reader's cancel)
    E = np.where(first, 0, Ktd + K[left] - K)
    # Whole rows: one gather per wave from fd[di-1:di+1] flattened. Whole
    # columns relabel from the previous row, partial columns read their
    # subtree term from the current row (an earlier wave), empty prefixes
    # the sentinel. gadd + (lab2w != lab1[i1]) is added to the gather: the
    # relabel cost on whole columns, 1 elsewhere.
    src = np.where(first, W, np.where(whole, cols - 1, W + 1 + tdcol))
    lab2w = np.where(whole, lab2[j1], -1)
    gadd = np.where(whole, -2, np.where(part, left - (cols - dj) + Ktd - K - 1, 0))

    b = np.empty(W, dtype=np.int64)
    gadd_row = np.empty(W, dtype=np.int64)
    mis = np.empty(W, dtype=bool)
    waves = [(s, e, src[s:e], b[s:e], gadd_row[s:e]) for s, e in lay.wave_bounds]

    l1l = l1.tolist()
    lab1l = lab1.tolist()
    own = canon1 == np.arange(n)
    trow = (np.cumsum(own) - 1)[canon1].tolist()  # treedist row of canon1[x]
    treedist = np.empty((int(own.sum()), W), dtype=np.int64)
    swept1 = [i for i, k in zip(kr1, keep1.tolist()) if k]
    rows = sum(i - l1l[i] + 1 for i in swept1)
    fd = np.empty((max(i - l1l[i] + 2 for i in swept1), W + 1), dtype=np.int64)
    fd[:, W] = _SENTINEL
    fd[0, :W] = lay.scan_off

    for i in swept1:
        li = l1l[i]
        for di in range(1, i - li + 2):
            i1 = li + di - 1
            prev = fd[di - 1, :W]
            cur = fd[di, :W]
            ri = l1l[i1] - li
            if ri:
                # every index is in range; "clip" spares take's out= the
                # buffered copy its default "raise" mode makes
                np.take(fd[ri], left, out=b, mode="clip")
                b += treedist[trow[i1]]
                np.minimum(prev, b, out=b)
                np.minimum.accumulate(b, out=cur)
            else:
                np.not_equal(lab2w, lab1l[i1], out=mis)
                np.add(gadd, mis, out=gadd_row)
                flat2 = fd[di - 1 : di + 1].reshape(-1)
                for s, e, src_w, g, gadd_w in waves:
                    np.take(flat2, src_w, out=g, mode="clip")
                    g += gadd_w
                    np.minimum(prev[s:e], g, out=g)
                    np.minimum.accumulate(g, out=cur[s:e])
                td = treedist[trow[i1]]
                np.take(fd[di], tdcol, out=td, mode="clip")
                td += E
    # the root keyroot swept last: its row n, column of T2's root
    root = node_col[m - 1]
    return int(fd[n, root] + K[root]) + n, rows * (W - len(lay.keyroots))


# ---------------------------------------------------------------------------
# Generic-cost pure-Python implementation
# ---------------------------------------------------------------------------


def zhang_shasha_generic(
    t1: Node,
    t2: Node,
    cost_delete: Callable[[Node], float],
    cost_insert: Callable[[Node], float],
    cost_relabel: Callable[[Node, Node], float],
) -> float:
    """Zhang–Shasha with arbitrary per-node costs (pure Python).

    The paper notes a future study "may associate different weights depending
    on operations and node types"; this entry point supports that today. It
    is also the independent reference the unit-cost kernels are tested
    against (with unit costs): it shares only the flattening with them.
    """
    nodes1 = list(t1.postorder())
    nodes2 = list(t2.postorder())
    _, l1a, kr1, _ = _flatten_arrays(t1)
    _, l2a, kr2, _ = _flatten_arrays(t2)
    l1 = l1a.tolist()
    l2 = l2a.tolist()
    n, m = len(nodes1), len(nodes2)
    if n == 0:
        return float(sum(cost_insert(x) for x in nodes2))
    if m == 0:
        return float(sum(cost_delete(x) for x in nodes1))

    treedist = [[0.0] * m for _ in range(n)]

    for i in kr1:
        li = l1[i]
        for j in kr2:
            lj = l2[j]
            isz = i - li + 2
            jsz = j - lj + 2
            fd = [[0.0] * jsz for _ in range(isz)]
            for di in range(1, isz):
                fd[di][0] = fd[di - 1][0] + cost_delete(nodes1[li + di - 1])
            for dj in range(1, jsz):
                fd[0][dj] = fd[0][dj - 1] + cost_insert(nodes2[lj + dj - 1])
            for di in range(1, isz):
                i1 = li + di - 1
                for dj in range(1, jsz):
                    j1 = lj + dj - 1
                    opt = min(
                        fd[di - 1][dj] + cost_delete(nodes1[i1]),
                        fd[di][dj - 1] + cost_insert(nodes2[j1]),
                    )
                    if l1[i1] == li and l2[j1] == lj:
                        opt = min(opt, fd[di - 1][dj - 1] + cost_relabel(nodes1[i1], nodes2[j1]))
                        fd[di][dj] = opt
                        treedist[i1][j1] = opt
                    else:
                        ri = l1[i1] - li
                        rj = l2[j1] - lj
                        fd[di][dj] = min(opt, fd[ri][rj] + treedist[i1][j1])
    return treedist[n - 1][m - 1]
