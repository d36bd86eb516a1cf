"""Source files and the virtual filesystem used by the frontends.

Codebases under analysis are represented as a :class:`VirtualFS`: a mapping
from path to text. This keeps corpora hermetic (no OS filesystem access
during analysis) and lets tests construct codebases inline. Paths beginning
with ``<system>/`` denote system headers — the paper's analyses can mask
those out, and ``T_sem+i`` refuses to inline code that comes from them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.util.errors import WorkflowError

#: Prefix marking system/model-runtime headers inside a VirtualFS.
SYSTEM_PREFIX = "<system>/"


def is_system_path(path: str) -> bool:
    """True for paths that live in the modelled system-include tree."""
    return path.startswith(SYSTEM_PREFIX)


@dataclass(frozen=True)
class SourceFile:
    """One file of a codebase."""

    path: str
    text: str

    @property
    def lines(self) -> list[str]:
        return self.text.splitlines()

    @property
    def is_system(self) -> bool:
        return is_system_path(self.path)


@dataclass
class VirtualFS:
    """An in-memory file tree with C-style include resolution."""

    files: dict[str, str] = field(default_factory=dict)
    include_dirs: list[str] = field(default_factory=lambda: ["", SYSTEM_PREFIX])

    def add(self, path: str, text: str) -> "VirtualFS":
        self.files[path] = text
        return self

    def get(self, path: str) -> SourceFile:
        if path not in self.files:
            raise WorkflowError(f"no such file in virtual FS: {path}")
        return SourceFile(path, self.files[path])

    def exists(self, path: str) -> bool:
        return path in self.files

    def resolve_include(self, name: str, including_file: str, angled: bool) -> Optional[str]:
        """Resolve ``#include`` per C semantics.

        Quoted includes first try the including file's directory; angled
        includes (and quoted fallbacks) walk ``include_dirs``.
        """
        candidates: list[str] = []
        if not angled:
            base = including_file.rsplit("/", 1)[0] if "/" in including_file else ""
            candidates.append(f"{base}/{name}" if base else name)
        for d in self.include_dirs:
            candidates.append(f"{d}{name}" if d.endswith("/") or not d else f"{d}/{name}")
        for c in candidates:
            if c in self.files:
                return c
        return None

    def paths(self) -> list[str]:
        return sorted(self.files)

