"""``Source`` — the textual relative measure (paper Eq. 4).

Unit pairs (from ``match``) are compared as sequences of normalised text
lines with the Wu–Manber O(NP) diff distance — the edit distance whose
complement is the longest common subsequence Eq. 4 is built on. A value of
zero means the codebases are textually identical after normalisation.
"""

from __future__ import annotations

from typing import Optional

from repro.distance.ted import pair_dmax
from repro.distance.wu_manber import onp_edit_distance
from repro.trees.coverage_mask import LineMask
from repro.workflow.codebase import IndexedCodebase, IndexedUnit, match_units


def _unit_lines(
    unit: IndexedUnit, variant: str, mask: Optional[LineMask]
) -> list[str]:
    lines = unit.source_lines_pre if variant == "pre" else unit.source_lines_post
    tags = unit.source_tags_pre if variant == "pre" else unit.source_tags_post
    if mask is None:
        return lines
    return [line for line, (f, ln) in zip(lines, tags) if mask.covered(f, ln)]


def source_distance(
    a: IndexedCodebase,
    b: IndexedCodebase,
    variant: str = "pre",
    mask_a: Optional[LineMask] = None,
    mask_b: Optional[LineMask] = None,
) -> tuple[float, float]:
    """Summed diff distance over matched unit pairs; returns (d, dmax).

    ``dmax`` is the Eq. 7 analogue for line sequences: per matched unit
    pair, the larger of the two line counts (an unmatched unit adds its own
    count). Like the distance it is symmetric in ``a`` and ``b``.
    """
    d = 0.0
    dmax = 0.0
    for ua, ub in match_units(a, b):
        la = _unit_lines(ua, variant, mask_a) if ua is not None else []
        lb = _unit_lines(ub, variant, mask_b) if ub is not None else []
        d += onp_edit_distance(la, lb)
        dmax += pair_dmax(len(la), len(lb))
    return d, dmax
