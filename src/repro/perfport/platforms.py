"""Platform registry — the paper's Table III, with roofline peaks.

Names, abbreviations and topology are verbatim Table III; the peak numbers
are public spec-sheet values used by the roofline performance model.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Platform:
    vendor: str
    name: str
    abbr: str
    topology: str
    kind: str  # "cpu" | "gpu"
    #: achievable memory bandwidth per benchmark node, GB/s
    mem_bw: float
    #: FP64 peak per benchmark node, GFLOP/s
    flops: float


#: Table III (order preserved).
PLATFORMS: tuple[Platform, ...] = (
    Platform("Intel", "Xeon Platinum 8468", "SPR", "8 nodes (32C*2)", "cpu", 480.0, 4300.0),
    Platform("AMD", "EPYC 7713", "Milan", "8 nodes (64C*2)", "cpu", 340.0, 3600.0),
    Platform("AWS", "Graviton 3e", "G3e", "8 nodes (64C*1)", "cpu", 300.0, 1900.0),
    Platform("NVIDIA", "Tesla H100 (SXM 80GB)", "H100", "2 nodes (4 GPUs)", "gpu", 3350.0, 34000.0),
    Platform("AMD", "Instinct MI250X", "MI250X", "2 nodes (4 GPUs)", "gpu", 3280.0, 47900.0),
    Platform("Intel", "Data Center GPU Max 1550", "PVC", "1 node (4 GPUs*)", "gpu", 3280.0, 52000.0),
)


def platform_by_abbr(abbr: str) -> Platform:
    for p in PLATFORMS:
        if p.abbr == abbr:
            return p
    raise KeyError(f"unknown platform {abbr!r}")
