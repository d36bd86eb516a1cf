"""Indexed-codebase data model.

An :class:`IndexedUnit` is the paper's ``unit_C(x)`` (Eq. 1): one main
source file plus its dependency closure, summarised into every tree and
line representation the metrics need. An :class:`IndexedCodebase` is one
programming-model port of one application — the object all relative metrics
compare pairwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.coverage.profile import CoverageProfile
from repro.lang.source import VirtualFS
from repro.trees.coverage_mask import LineMask
from repro.trees.node import Node


@dataclass
class ModelSpec:
    """Declarative description of one model port (corpus registry entry)."""

    app: str
    model: str
    lang: str  # "cpp" | "fortran"
    dialect: str = "host"  # host | cuda | hip | sycl
    openmp: bool = False
    #: role -> main file path within the codebase's VirtualFS
    units: dict[str, str] = field(default_factory=dict)
    defines: dict[str, str] = field(default_factory=dict)
    #: entry point for the coverage run (None = not runnable)
    entry: Optional[str] = "main"


@dataclass
class IndexedUnit:
    """All representations of one translation unit."""

    role: str
    path: str
    deps: list[str] = field(default_factory=list)
    #: True when the frontend failed and the unit was quarantined: only the
    #: raw-text line representations below are populated; all trees are None
    #: (``tree_distance`` treats a missing tree as pure insert/delete cost).
    degraded: bool = False
    # -- line representations ------------------------------------------------
    #: file -> significant (code-bearing) line numbers, pre-preprocessor
    sig_lines_pre: dict[str, set[int]] = field(default_factory=dict)
    #: file -> significant line numbers seen in the post-preprocessor stream
    sig_lines_post: dict[str, set[int]] = field(default_factory=dict)
    #: logical lines per file (LLOC), pre-preprocessor
    lloc_pre: dict[str, int] = field(default_factory=dict)
    lloc_post: dict[str, int] = field(default_factory=dict)
    #: normalised token-text per logical line (whole unit; Source metric)
    source_lines_pre: list[str] = field(default_factory=list)
    source_lines_post: list[str] = field(default_factory=list)
    #: (file, line) tags aligned with source_lines_* (coverage filtering)
    source_tags_pre: list[tuple[str, int]] = field(default_factory=list)
    source_tags_post: list[tuple[str, int]] = field(default_factory=list)
    # -- trees -----------------------------------------------------------------
    t_src_pre: Optional[Node] = None
    t_src_post: Optional[Node] = None
    t_sem: Optional[Node] = None
    t_sem_inlined: Optional[Node] = None
    t_ir: Optional[Node] = None

    def tree(self, which: str) -> Optional[Node]:
        return {
            "src": self.t_src_pre,
            "src+pp": self.t_src_post,
            "sem": self.t_sem,
            "sem+i": self.t_sem_inlined,
            "ir": self.t_ir,
        }[which]


@dataclass
class IndexedCodebase:
    """One model port, fully summarised."""

    spec: ModelSpec
    fs: VirtualFS
    units: dict[str, IndexedUnit] = field(default_factory=dict)
    coverage: Optional[CoverageProfile] = None
    #: interpreter exit status of the verification run (None = not run)
    run_value: Optional[object] = None

    @property
    def app(self) -> str:
        return self.spec.app

    @property
    def model(self) -> str:
        return self.spec.model

    def mask(self) -> Optional[LineMask]:
        return self.coverage.line_mask() if self.coverage is not None else None

    def roles(self) -> list[str]:
        return sorted(self.units)


def match_units(
    a: IndexedCodebase, b: IndexedCodebase
) -> list[tuple[Optional[IndexedUnit], Optional[IndexedUnit]]]:
    """The paper's ``match`` function: pair units implementing the same part.

    Primary key is the registry-assigned role; units present on only one
    side are paired with ``None`` (pure insertion/deletion cost).
    """
    roles = sorted(set(a.units) | set(b.units))
    return [(a.units.get(r), b.units.get(r)) for r in roles]
