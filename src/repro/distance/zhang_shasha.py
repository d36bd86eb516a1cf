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
* **Wide layout** — all keyroot-2 forest-DP matrices are laid side by side
  in one ``(isz × W)`` array per keyroot-1 (``W`` = total columns incl.
  each segment's empty-prefix column).
* **Segmented running-min scan** — the insert option ``row[j] =
  min(cand[j], row[j-1]+1)`` equals ``jr + running_min(cand - jr)``; adding
  a per-segment offset ``(S - rank)·BIG`` before ``np.minimum.accumulate``
  stops values leaking across segment boundaries.
* **Wave ordering** — in rows where the T1 subforest is a whole subtree,
  partial columns read ``treedist`` entries that whole columns of *nested*
  keyroot-2 segments write in the same row. Segments are therefore grouped
  into waves by keyroot nesting depth and processed innermost-first; rows
  without that dependency sweep all segments in a single pass.

Exact — validated against the brute-force oracle and the generic-cost
kernel (with unit costs) by the property suite.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro import obs
from repro.trees.node import Node

_BIG = np.int64(1) << 24


class _Tree2Layout:
    """Precomputed wide-column layout for the second tree."""

    def __init__(self, l2: np.ndarray, lab2: np.ndarray, keyroots: list[int]):
        self.lab2 = lab2
        self.keyroots = keyroots
        col_seg: list[int] = []
        col_dj: list[int] = []
        col_j1: list[int] = []
        col_whole: list[bool] = []
        col_left: list[int] = []  # fd column of the forest left of subtree(j1)
        offset = 0
        for rank, j in enumerate(keyroots):
            lj = int(l2[j])
            jsz = j - lj + 2
            for dj in range(jsz):
                col_seg.append(rank)
                col_dj.append(dj)
                if dj == 0:
                    col_j1.append(-1)
                    col_whole.append(False)
                    col_left.append(offset)
                else:
                    j1 = lj + dj - 1
                    col_j1.append(j1)
                    col_whole.append(int(l2[j1]) == lj)
                    col_left.append(offset + (int(l2[j1]) - lj))
            offset += jsz
        self.W = offset
        self.col_seg = np.asarray(col_seg, dtype=np.int64)
        self.col_dj = np.asarray(col_dj, dtype=np.int64)
        self.col_j1 = np.asarray(col_j1, dtype=np.int64)
        self.col_whole = np.asarray(col_whole, dtype=bool)
        self.col_left = np.asarray(col_left, dtype=np.int64)
        # scan offsets: earlier (left) segments get larger offsets so their
        # values lose the running min beyond their boundary
        nseg = len(keyroots)
        self.scan_off = (np.int64(nseg) - self.col_seg) * _BIG

        # wave = keyroot nesting depth (innermost = 0)
        kr = np.asarray(keyroots, dtype=np.int64)
        lkr = l2[kr]
        waves = np.zeros(nseg, dtype=np.int64)
        for r in range(nseg):
            nested = (kr < kr[r]) & (lkr >= lkr[r])
            if nested.any():
                waves[r] = waves[nested].max() + 1
        self.n_waves = int(waves.max()) + 1 if nseg else 0
        col_wave = waves[self.col_seg]
        # per-wave column index arrays (all columns incl. dj=0 seeds)
        self.wave_cols = [
            np.nonzero(col_wave == w)[0] for w in range(self.n_waves)
        ]
        # global split masks
        self.dj0_cols = np.nonzero(self.col_dj == 0)[0]
        self.djn_cols = np.nonzero(self.col_dj > 0)[0]


def _flatten_arrays(
    root, vocab: dict | None = None
) -> tuple[np.ndarray, np.ndarray, list[int], dict]:
    """Postorder label ids, leftmost-leaf indices and keyroots for one tree.

    Keyroots are the nodes that start a new forest DP: a node is a keyroot
    iff no proper ancestor shares its leftmost leaf. ``vocab`` interns
    labels to ids; pass the dict returned for the first tree when
    flattening the second so label ids stay comparable across the pair.
    The cross-pair packer (:mod:`repro.distance.zs_cross`) reuses this
    helper with one vocab per pair.
    """
    if vocab is None:
        vocab = {}
    lmld: list[int] = []
    stack = [(root, 0)]
    leftmost: dict[int, int] = {}
    order_len = 0
    lab_ids: list[int] = []
    while stack:
        node, state = stack.pop()
        if state == 0:
            stack.append((node, 1))
            for c in reversed(node.children):
                stack.append((c, 0))
        else:
            idx = order_len
            order_len += 1
            lm = leftmost[id(node.children[0])] if node.children else idx
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


def zhang_shasha_distance(t1: Node, t2: Node) -> int:
    """Exact unit-cost TED between ordered trees ``t1`` and ``t2``.

    Reports ``ted.zs.calls``, ``zs.keyroot_pairs`` (``|kr1|·|kr2|``) and
    ``zs.dp_cells`` (``L(T1)·L(T2)``, the cells the sweep computes) when a
    collector is installed.
    """
    lab1, l1, kr1, vocab = _flatten_arrays(t1)
    # second tree shares the vocabulary for label-id comparability
    lab2, l2, kr2, _ = _flatten_arrays(t2, vocab)
    if not obs.enabled():
        return _row_sweep(lab1, l1, kr1, lab2, l2, kr2)
    cells = _keyroot_cells(l1, kr1) * _keyroot_cells(l2, kr2)
    obs.add("ted.zs.calls")
    obs.add("zs.keyroot_pairs", len(kr1) * len(kr2))
    obs.add("zs.dp_cells", cells)
    with obs.span("zs", cells=cells):
        return _row_sweep(lab1, l1, kr1, lab2, l2, kr2)


def _row_sweep(lab1, l1, kr1, lab2, l2, kr2) -> int:
    """The row-sweep DP over one flattened pair."""
    n = len(lab1)
    m = len(lab2)
    if n == 0:
        return m
    if m == 0:
        return n

    layout = _Tree2Layout(l2, lab2, kr2)
    W = layout.W
    treedist = np.zeros((n, m), dtype=np.int64)
    jr = layout.col_dj  # insert-scan ramp = dj
    lab2_cols = np.where(layout.col_j1 >= 0, lab2[layout.col_j1], -1)
    j1_cols = layout.col_j1
    left_cols = layout.col_left
    whole_mask = layout.col_whole
    dj0 = layout.dj0_cols
    djn = layout.djn_cols
    scan_off = layout.scan_off

    # per-wave precomputed subsets (incl. gather arrays hoisted out of the
    # row loop: these run once per wave per row)
    wave_data = []
    for cols in layout.wave_cols:
        w_dj0 = cols[layout.col_dj[cols] == 0]
        w_djn = cols[layout.col_dj[cols] > 0]
        sel_whole = whole_mask[w_djn]
        w_whole = w_djn[sel_whole]
        w_part = w_djn[~sel_whole]
        wave_data.append(
            (
                cols,
                w_dj0,
                w_djn,
                w_whole,
                w_part,
                sel_whole,
                ~sel_whole,
                w_whole - 1,
                lab2_cols[w_whole],
                left_cols[w_part],
                j1_cols[w_part],
                j1_cols[w_whole],
                jr[cols],
                scan_off[cols],
            )
        )

    for i in kr1:
        li = int(l1[i])
        isz = i - li + 2
        fd = np.empty((isz, W), dtype=np.int64)
        fd[0, :] = jr
        scratch = np.empty(W, dtype=np.int64)
        for di in range(1, isz):
            i1 = li + di - 1
            rowwhole = int(l1[i1]) == li
            prev = fd[di - 1]
            cur = fd[di]
            trow = treedist[i1]
            if not rowwhole:
                base = fd[int(l1[i1]) - li]
                # candidates for dj>=1 columns
                cand = prev[djn] + 1
                sub = base[left_cols[djn]] + trow[j1_cols[djn]]
                np.minimum(cand, sub, out=cand)
                scratch[dj0] = di
                scratch[djn] = cand
                c = scratch - jr + scan_off
                np.minimum.accumulate(c, out=c)
                np.subtract(c, scan_off, out=c)
                np.add(c, jr, out=cur)
            else:
                fd0 = fd[0]
                for (
                    cols,
                    w_dj0,
                    w_djn,
                    w_whole,
                    w_part,
                    sel_whole,
                    sel_part,
                    w_whole_m1,
                    w_lab2,
                    w_left,
                    w_j1p,
                    w_j1w,
                    w_jr,
                    w_off,
                ) in wave_data:
                    if len(cols) == 0:
                        continue
                    cand = prev[w_djn] + 1
                    if w_whole.size:
                        rel = prev[w_whole_m1] + (lab1[i1] != w_lab2)
                        cand[sel_whole] = np.minimum(cand[sel_whole], rel)
                    if w_part.size:
                        sub = fd0[w_left] + trow[w_j1p]
                        cand[sel_part] = np.minimum(cand[sel_part], sub)
                    scratch[w_dj0] = di
                    scratch[w_djn] = cand
                    c = scratch[cols] - w_jr + w_off
                    np.minimum.accumulate(c, out=c)
                    c -= w_off
                    c += w_jr
                    cur[cols] = c
                    if w_whole.size:
                        trow[w_j1w] = cur[w_whole]
    return int(treedist[n - 1, m - 1])


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
