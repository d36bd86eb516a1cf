"""LLOC — logical lines of code (paper Eq. 3, Nguyen et al. definition).

A logical line is a statement (semicolon-terminated in C++, a statement
line in Fortran) or a control construct header counted once regardless of
line breaks; the counts come from the lexical summaries the indexer builds
from the token streams.
"""

from __future__ import annotations

from typing import Optional

from repro.trees.coverage_mask import LineMask
from repro.workflow.codebase import IndexedCodebase


def lloc(cb: IndexedCodebase, variant: str = "pre", mask: Optional[LineMask] = None) -> int:
    """Total LLOC of a codebase (Eq. 3).

    With a coverage mask, the logical count is scaled by each file's
    covered fraction of significant lines — the line-based mask is the only
    granularity coverage data offers (§IV-D).
    """
    total = 0
    for unit in cb.units.values():
        table = unit.lloc_pre if variant == "pre" else unit.lloc_post
        sig = unit.sig_lines_pre if variant == "pre" else unit.sig_lines_post
        for f, count in table.items():
            if mask is not None and f in sig and sig[f]:
                covered = sum(1 for ln in sig[f] if mask.covered(f, ln))
                count = round(count * covered / len(sig[f]))
            total += count
    return total
