"""Cross-pair batched Zhang–Shasha: one row sweep across many tree pairs.

:func:`repro.distance.zhang_shasha.zhang_shasha_distance` already sweeps
all keyroot-2 segments of *one* pair per NumPy call; matrix builds,
however, hand the engine whole chunks of pairs, and medium trees leave
vector lanes idle. This kernel packs the wide column layouts of **several
pairs side by side** (total width ``Wtot``) and executes their row
schedules in tick lockstep, so each ``np.minimum.accumulate`` / gather
touches every active pair at once.

Mechanics (everything else, including each pair's choice of the left or
mirrored decomposition path, is inherited from the per-pair kernel):

* **Schedules** — each pair linearises its keyroot-1 loop into a flat list
  of DP rows ``(keyroot, di)``; tick ``t`` executes row ``t`` of every
  pair still running. Rows of different pairs touch disjoint columns, so
  packing is sound.
* **Global FD buffer** — one ``(max_isz × Wtot)`` forest-distance array.
  Row 0 is the ``dj`` ramp and is never written (every keyroot's row 0 is
  that ramp), so keyroot transitions need no re-seeding; per-pair rows are
  addressed by flat index ``di·Wtot + col``. The empty-prefix seed
  ``fd[di][0] = di`` falls out of the delete candidate ``fd[di-1][0]+1``,
  so no scratch scatter is needed.
* **Global segment ranks** — the segmented running-min scan offsets use
  ranks unique across *all* pairs' segments, decreasing left to right, so
  one accumulate per tick serves every pair without leakage.
* **Tick groups** — at each tick, pairs whose current row is a whole
  subtree (``rowwhole``) sweep their T2 waves innermost-first (nested
  segments publish ``treedist`` entries read by outer partial columns in
  the same row); the rest share one single-pass sweep. Concatenated index
  bundles are cached per group composition, which repeats heavily.
* **Memory groups** — pairs are greedily split so ``max_isz × Wtot`` stays
  under ``_MAX_FD_CELLS``; a lone oversized pair degenerates to exactly
  the per-pair kernel's footprint.

Exact — cross-validated against the generic-cost reference kernel
(:func:`repro.distance.zhang_shasha.zhang_shasha_generic`, unit costs) by
the property suite, and bit-identity is enforced end-to-end by
``check_determinism.py``.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.distance.zhang_shasha import (
    _BIG,
    _flatten_pair,
    _keyroot_cells,
    _Tree2Layout,
)

#: FD-buffer budget per packed group (int64 cells; 1<<23 = 64 MiB).
_MAX_FD_CELLS = 1 << 23


class _PairPlan:
    """Flattened arrays, T2 layout and row schedule for one tree pair."""

    def __init__(self, t1, t2):
        (lab1, l1, kr1, lab2, l2, kr2), left, right = _flatten_pair(t1, t2)
        self.n = len(lab1)
        self.m = len(lab2)
        self.out = -1  # caller's result slot
        if self.n == 0 or self.m == 0:
            self.layout = None
            self.R = 0
            self.max_isz = 0
            return
        self.lab1 = lab1
        self.layout = _Tree2Layout(l2, lab2, kr2)
        self.keyroot_pairs = len(kr1) * len(kr2)
        self.dp_cells = _keyroot_cells(l1, kr1) * _keyroot_cells(l2, kr2)
        self.cells_left = left
        self.cells_right = right
        # Row schedule: keyroots ascending (the ZS invariant that treedist
        # entries are published before outer keyroots read them), rows
        # di = 1..isz-1 within each.
        l1l = l1.tolist()
        lab1l = lab1.tolist()
        sdi: list[int] = []
        si1: list[int] = []
        sbase: list[int] = []
        slab1: list[int] = []
        srw: list[bool] = []
        max_isz = 0
        for i in kr1:
            li = l1l[i]
            isz = i - li + 2
            if isz > max_isz:
                max_isz = isz
            for di in range(1, isz):
                i1 = li + di - 1
                sdi.append(di)
                si1.append(i1)
                srw.append(l1l[i1] == li)
                sbase.append(l1l[i1] - li)
                slab1.append(lab1l[i1])
        self.R = len(sdi)
        self.sdi = sdi
        self.si1 = si1
        self.sbase = sbase
        self.slab1 = slab1
        self.srw = srw
        self.max_isz = max_isz


class _WaveCols:
    """Per-pair, per-wave column metadata, globalised to the group layout."""

    __slots__ = (
        "cols_g", "jr", "off", "whole_pos", "part_pos",
        "wholem1_g", "lab2_whole", "left_part_g", "j1_part", "j1_whole",
    )

    def __init__(self, plan: _PairPlan, cols: np.ndarray):
        L = plan.layout
        woff = plan.woff
        self.cols_g = cols + woff
        self.jr = L.col_dj[cols]
        self.off = plan.off_g[cols]
        whole = L.col_whole[cols]
        part = (L.col_dj[cols] > 0) & ~whole
        self.whole_pos = np.nonzero(whole)[0]
        self.part_pos = np.nonzero(part)[0]
        w_cols = cols[self.whole_pos]
        p_cols = cols[self.part_pos]
        self.wholem1_g = w_cols + woff - 1
        self.lab2_whole = L.lab2[L.col_j1[w_cols]]
        self.left_part_g = L.col_left[p_cols] + woff
        self.j1_part = L.col_j1[p_cols]
        self.j1_whole = L.col_j1[w_cols]


class _Bundle:
    """Concatenated index arrays for one tick-group composition."""

    __slots__ = (
        "cols", "jr", "off", "widths",
        "djn_pos", "left_djn", "j1_djn", "djn_w",
        "whole_pos", "part_pos", "wholem1", "lab2_whole", "left_part",
        "j1_part", "j1_whole", "whole_w", "part_w",
    )


def _nw_bundle(group: list[_PairPlan]) -> _Bundle:
    b = _Bundle()
    b.cols = np.concatenate([p.cols_g for p in group])
    b.jr = np.concatenate([p.layout.col_dj for p in group])
    b.off = np.concatenate([p.off_g for p in group])
    b.widths = np.asarray([p.layout.W for p in group], dtype=np.int64)
    shift = np.cumsum(b.widths) - b.widths
    b.djn_pos = np.concatenate(
        [p.layout.djn_cols + s for p, s in zip(group, shift.tolist())]
    )
    b.left_djn = np.concatenate([p.left_djn_g for p in group])
    b.j1_djn = np.concatenate([p.j1_djn for p in group])
    b.djn_w = np.asarray([len(p.j1_djn) for p in group], dtype=np.int64)
    return b


def _rw_bundle(group: list[_PairPlan], wave: int) -> _Bundle:
    ws = [p.waves[wave] for p in group]
    b = _Bundle()
    b.cols = np.concatenate([w.cols_g for w in ws])
    b.jr = np.concatenate([w.jr for w in ws])
    b.off = np.concatenate([w.off for w in ws])
    b.widths = np.asarray([len(w.cols_g) for w in ws], dtype=np.int64)
    shift = np.cumsum(b.widths) - b.widths
    b.whole_pos = np.concatenate(
        [w.whole_pos + s for w, s in zip(ws, shift.tolist())]
    )
    b.part_pos = np.concatenate(
        [w.part_pos + s for w, s in zip(ws, shift.tolist())]
    )
    b.wholem1 = np.concatenate([w.wholem1_g for w in ws])
    b.lab2_whole = np.concatenate([w.lab2_whole for w in ws])
    b.left_part = np.concatenate([w.left_part_g for w in ws])
    b.j1_part = np.concatenate([w.j1_part for w in ws])
    b.j1_whole = np.concatenate([w.j1_whole for w in ws])
    b.whole_w = np.asarray([len(w.whole_pos) for w in ws], dtype=np.int64)
    b.part_w = np.asarray([len(w.part_pos) for w in ws], dtype=np.int64)
    return b


def _run_group(plans: list[_PairPlan], results: list) -> None:
    """Tick-lockstep sweep of one memory group; writes ``results[p.out]``."""
    Wtot = 0
    total_segs = 0
    for p in plans:
        p.woff = Wtot
        Wtot += p.layout.W
        p.rank0 = total_segs
        total_segs += len(p.layout.keyroots)
    jr_g = np.concatenate([p.layout.col_dj for p in plans])
    td_total = 0
    for gid, p in enumerate(plans):
        p.gid = gid
        L = p.layout
        p.off_g = (np.int64(total_segs) - (L.col_seg + p.rank0)) * _BIG
        p.cols_g = np.arange(p.woff, p.woff + L.W, dtype=np.int64)
        p.left_djn_g = L.col_left[L.djn_cols] + p.woff
        p.j1_djn = L.col_j1[L.djn_cols]
        p.waves = [_WaveCols(p, cols) for cols in L.wave_cols]
        p.td_base = td_total
        td_total += p.n * p.m

    max_isz = max(p.max_isz for p in plans)
    FD = np.empty((max_isz, Wtot), dtype=np.int64)
    FD[0, :] = jr_g
    FDf = FD.reshape(-1)
    TDf = np.zeros(td_total, dtype=np.int64)

    nw_bundles: dict[tuple, _Bundle] = {}
    rw_bundles: dict[tuple, _Bundle] = {}
    T = max(p.R for p in plans)

    for t in range(T):
        nw: list[_PairPlan] = []
        rw: list[_PairPlan] = []
        for p in plans:
            if t < p.R:
                (rw if p.srw[t] else nw).append(p)

        if nw:
            key = tuple(p.gid for p in nw)
            b = nw_bundles.get(key)
            if b is None:
                b = nw_bundles[key] = _nw_bundle(nw)
            di = np.asarray([p.sdi[t] for p in nw], dtype=np.int64)
            base = np.asarray([p.sbase[t] for p in nw], dtype=np.int64)
            tdoff = np.asarray(
                [p.td_base + p.si1[t] * p.m for p in nw], dtype=np.int64
            )
            prev_off = np.repeat((di - 1) * Wtot, b.widths)
            cand = FDf[b.cols + prev_off]
            cand += 1
            sub = FDf[b.left_djn + np.repeat(base * Wtot, b.djn_w)]
            sub += TDf[b.j1_djn + np.repeat(tdoff, b.djn_w)]
            np.minimum(cand[b.djn_pos], sub, out=sub)
            cand[b.djn_pos] = sub
            cand -= b.jr
            cand += b.off
            np.minimum.accumulate(cand, out=cand)
            cand -= b.off
            cand += b.jr
            FDf[b.cols + np.repeat(di * Wtot, b.widths)] = cand

        if rw:
            max_waves = max(p.layout.n_waves for p in rw)
            for w in range(max_waves):
                grp = [p for p in rw if w < p.layout.n_waves]
                key = (w, *(p.gid for p in grp))
                b = rw_bundles.get(key)
                if b is None:
                    b = rw_bundles[key] = _rw_bundle(grp, w)
                di = np.asarray([p.sdi[t] for p in grp], dtype=np.int64)
                tdoff = np.asarray(
                    [p.td_base + p.si1[t] * p.m for p in grp], dtype=np.int64
                )
                prev_off = np.repeat((di - 1) * Wtot, b.widths)
                cand = FDf[b.cols + prev_off]
                cand += 1
                if b.wholem1.size:
                    lab1v = np.asarray(
                        [p.slab1[t] for p in grp], dtype=np.int64
                    )
                    rel = FDf[b.wholem1 + np.repeat((di - 1) * Wtot, b.whole_w)]
                    rel += np.repeat(lab1v, b.whole_w) != b.lab2_whole
                    np.minimum(cand[b.whole_pos], rel, out=rel)
                    cand[b.whole_pos] = rel
                if b.left_part.size:
                    sub = FDf[b.left_part]  # FD row 0: the constant ramp
                    sub = sub + TDf[b.j1_part + np.repeat(tdoff, b.part_w)]
                    np.minimum(cand[b.part_pos], sub, out=sub)
                    cand[b.part_pos] = sub
                cand -= b.jr
                cand += b.off
                np.minimum.accumulate(cand, out=cand)
                cand -= b.off
                cand += b.jr
                FDf[b.cols + np.repeat(di * Wtot, b.widths)] = cand
                if b.wholem1.size:
                    TDf[b.j1_whole + np.repeat(tdoff, b.whole_w)] = cand[
                        b.whole_pos
                    ]

    for p in plans:
        results[p.out] = int(TDf[p.td_base + (p.n - 1) * p.m + (p.m - 1)])


def zhang_shasha_cross(pairs: list[tuple]) -> list[int]:
    """Exact unit-cost TED for every ``(t1, t2)`` pair, packed cross-pair.

    Returns one distance per input pair, in order. Degenerate pairs (an
    empty side) are answered directly; the rest are packed into memory
    groups and swept in lockstep.
    """
    results: list = [0] * len(pairs)
    plans: list[_PairPlan] = []
    for idx, (t1, t2) in enumerate(pairs):
        p = _PairPlan(t1, t2)
        if p.layout is None:
            results[idx] = p.n + p.m
        else:
            p.out = idx
            plans.append(p)
    if obs.enabled() and plans:
        obs.add("zs.cross_calls")
        obs.add("zs.cross_pairs", len(plans))
        # same exact-DP work as zhang_shasha_distance, just packed — the
        # warm-cache/resume gates count ted.zs.calls per pair evaluated
        obs.add("ted.zs.calls", len(plans))
        obs.add("zs.keyroot_pairs", sum(p.keyroot_pairs for p in plans))
        obs.add("zs.dp_cells", sum(p.dp_cells for p in plans))
        obs.add("zs.cells_left", sum(p.cells_left for p in plans))
        obs.add("zs.cells_right", sum(p.cells_right for p in plans))
    group: list[_PairPlan] = []
    gw = 0
    gisz = 0
    for p in plans:
        isz = max(gisz, p.max_isz)
        if group and isz * (gw + p.layout.W) > _MAX_FD_CELLS:
            _run_group(group, results)
            group = [p]
            gw = p.layout.W
            gisz = p.max_isz
        else:
            group.append(p)
            gw += p.layout.W
            gisz = isz
    if group:
        _run_group(group, results)
    return results
