"""Coverage profiles and GCov-style reporting (paper §IV-D).

Profiles come from the MiniC++ interpreter (real reduced-problem runs) or
can be synthesised for languages without an interpreter. Internally a
profile is "converted to a line-based mask that can be toggled for any tree
structure or source file" — :class:`repro.trees.coverage_mask.LineMask`.
"""

from repro.coverage.profile import CoverageProfile, profile_from_run
from repro.coverage.report import gcov_report

__all__ = ["CoverageProfile", "profile_from_run", "gcov_report"]
