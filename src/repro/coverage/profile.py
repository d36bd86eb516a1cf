"""Coverage profile container."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.trees.coverage_mask import LineMask


@dataclass
class CoverageProfile:
    """Per-(file, line) hit counts plus conversion to a tree mask."""

    hits: Counter = field(default_factory=Counter)

    def record(self, file: str, line: int, count: int = 1) -> None:
        self.hits[(file, line)] += count

    def line_mask(self) -> LineMask:
        per_file: dict[str, set[int]] = {}
        for (f, line), c in self.hits.items():
            if c > 0:
                per_file.setdefault(f, set()).add(line)
        return LineMask(per_file)

    def covered_lines(self, file: str) -> set[int]:
        return {ln for (f, ln), c in self.hits.items() if f == file and c > 0}

    def total_hits(self) -> int:
        return sum(self.hits.values())


def profile_from_run(result) -> CoverageProfile:
    """Build a profile from an :class:`~repro.exec.interpreter.ExecutionResult`."""
    p = CoverageProfile()
    for key, c in result.coverage.items():
        p.hits[key] += c
    return p
