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
    Files absent from the mask are treated as *fully covered* by default
    (``unknown_covered=True``) because compilers only emit coverage for
    instrumented translation units; headers pulled in by an instrumented
    unit inherit its records.
    """

    def __init__(self, lines: Mapping[str, Set[int]], unknown_covered: bool = True):
        self._lines = {f: set(ls) for f, ls in lines.items()}
        self.unknown_covered = unknown_covered

    def covered(self, file: str, line: int) -> bool:
        if file not in self._lines:
            return self.unknown_covered
        return line in self._lines[file]

    def covered_span(self, file: str, line_start: int, line_end: int) -> bool:
        """True when *any* line of the span executed."""
        if file not in self._lines:
            return self.unknown_covered
        hit = self._lines[file]
        return any(ln in hit for ln in range(line_start, line_end + 1))

    def files(self) -> list[str]:
        return sorted(self._lines)

    def union(self, other: "LineMask") -> "LineMask":
        merged = {f: set(ls) for f, ls in self._lines.items()}
        for f, ls in other._lines.items():
            merged.setdefault(f, set()).update(ls)
        return LineMask(merged, self.unknown_covered or other.unknown_covered)

    def digest(self) -> str:
        """Stable content hash of the mask (serve memo fingerprints:
        coverage-filtered metrics change whenever the executed-line sets
        change, so the mask must be part of any stored-result key)."""
        import hashlib

        h = hashlib.sha256()
        h.update(b"1" if self.unknown_covered else b"0")
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
