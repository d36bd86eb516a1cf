"""Staged pruning cascade ahead of exact Zhang–Shasha TED.

Not on the TED path: :func:`repro.distance.ted.ted_many` stopped calling
it once the twin-keyroot row sweep made its bounds cost more than the
kernels they saved (DESIGN.md "Pruning cascade contract"). Kept only
because ``bench_e2e/layers.py`` wraps ``ted.cascade_distance`` and
imports :class:`~repro.distance.bounds.BoundOracle`; remove this module,
:mod:`repro.distance.bounds` and their helpers with that wrapper
(ROADMAP items 1 and 3).

The paper's central cost is the exact pairwise TED; on real corpora most of
that time is spent proving distances the trees already reveal much more
cheaply. This module sandwiches each candidate pair between *valid* bounds
and only admits it to the O(n·m·depth) DP when the bounds disagree:

========== ==================================================== ============
stage      lower bound                                          cost
========== ==================================================== ============
stats      max(|Δsize|, |Δdepth|, |Δleaves|) from ``TreeStats`` O(1) cached
histogram  label-multiset bound (:func:`histogram_lower_bound`) O(labels)
sequence   Levenshtein over preorder label strings              O(n·m / W)
========== ==================================================== ============

Since the metric-space index PR the bounds themselves live in the shared
oracle layer (:mod:`repro.distance.bounds`) — this module is the *TED
engine's consumer* of that oracle: it asks for the greedy upper bound,
walks the staged lower bounds against it, and prunes **iff a lower bound
meets the upper bound** — at that point ``lb <= TED <= ub`` pins the exact
distance, so cascade-pruned matrices are bit-identical to brute-force ones.
Installing the null oracle
(:class:`repro.distance.bounds.BruteForceOracle`, ``prunes = False``) is
the only way to switch the cascade off.

Counters (taxonomy documented in DESIGN.md): ``ted.cascade.calls``,
``ted.pruned.stats`` / ``ted.pruned.histogram`` / ``ted.pruned.sequence``
for prunes attributed to the deciding stage, and ``ted.cascade.exact`` when
the pair falls through to the DP. The hash-equality stage lives upstream in
:func:`repro.distance.ted.ted_many` and reports as ``ted.pruned.hash``.
"""

from __future__ import annotations

from typing import Optional

from repro import obs
from repro.distance.bounds import BoundOracle, get_oracle
from repro.trees.node import Node

#: Pairs below this many DP cells skip the cascade entirely: the exact
#: kernel clears them in well under a millisecond, so bound computation
#: would only add overhead.
_MIN_CELLS = 30_000


def cascade_distance(
    t1: Node,
    t2: Node,
    n1: Optional[int] = None,
    n2: Optional[int] = None,
    oracle: Optional[BoundOracle] = None,
) -> Optional[tuple[float, str]]:
    """Try to pin the exact unit-cost TED without running the full DP.

    Returns ``(distance, stage)`` when some oracle stage's lower bound met
    the greedy upper bound (the distance is then exact), or ``None`` when
    the pair must go to the DP. ``n1``/``n2`` are the tree sizes if the
    caller already has them (avoids a re-count); ``oracle`` overrides the
    process-wide :func:`repro.distance.bounds.get_oracle`. An oracle that
    does not prune (the null oracle) returns ``None`` before any bound
    work or counting.
    """
    orc = oracle if oracle is not None else get_oracle()
    if not orc.prunes:
        return None
    if n1 is None:
        n1 = t1.size()
    if n2 is None:
        n2 = t2.size()
    if n1 * n2 < _MIN_CELLS:
        return None
    collecting = obs.enabled()
    if collecting:
        obs.add("ted.cascade.calls")
    ub = orc.upper(t1, t2)
    for stage, lb in orc.lower_stages(t1, t2, cap=ub):
        if lb >= ub:
            if collecting:
                obs.add(f"ted.pruned.{stage}")
            return float(ub), stage
    if collecting:
        obs.add("ted.cascade.exact")
    return None
