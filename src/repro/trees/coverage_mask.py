"""Coverage masking of trees (paper §III-A, §IV-D).

Runtime coverage data is converted to a per-file line mask; tree nodes whose
source span falls entirely on unexecuted lines are pruned. The paper uses
this to "eliminate parts of the tree that were never executed".
"""

from __future__ import annotations

from typing import Mapping, Optional, Set

from repro.trees.node import Node


class LineMask:
    """Executed-line sets per file.

    ``covered(file, line)`` is True when the line executed at least once.
    A file absent from the mask is not covered: the run executed none of
    its lines (a header the run entered has its own records).
    """

    def __init__(self, lines: Mapping[str, Set[int]]):
        self._lines = {f: set(ls) for f, ls in lines.items()}

    def covered(self, file: str, line: int) -> bool:
        return line in self._lines.get(file, ())

    def covered_span(self, file: str, line_start: int, line_end: int) -> bool:
        """True when *any* line of the span executed."""
        hit = self._lines.get(file)
        if hit is None:
            return False
        return any(ln in hit for ln in range(line_start, line_end + 1))

    def digest(self) -> str:
        """Stable content hash of the mask (serve memo fingerprints:
        coverage-filtered metrics change whenever the executed-line sets
        change, so the mask must be part of any stored-result key)."""
        import hashlib

        h = hashlib.sha256()
        # the leading b"0" once recorded the absent-file policy; it stays so
        # that every digest already stored keeps its value
        h.update(b"0")
        for f in sorted(self._lines):
            h.update(b"\x00")
            h.update(f.encode())
            for ln in sorted(self._lines[f]):
                h.update(b"\x01")
                h.update(str(ln).encode())
        return h.hexdigest()[:16]


def mask_tree(root: Node, mask: LineMask) -> Optional[Node]:
    """Prune subtrees whose spans never executed.

    A node is kept when it has no span (structural nodes), when any line of
    its span is covered, or when any *descendant* survives — parents of
    covered code are always retained so the tree stays connected.
    """

    kept_children = []
    for c in root.children:
        pc = mask_tree(c, mask)
        if pc is not None:
            kept_children.append(pc)
    span = root.span
    self_covered = span is None or mask.covered_span(span.file, span.line_start, span.line_end)
    if not self_covered and not kept_children:
        return None
    return Node(root.label, root.kind, kept_children, span, dict(root.attrs))
