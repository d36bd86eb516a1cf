"""The performance-portability metric Φ (Pennycook, Sewall & Lee 2016).

Φ(a, p, H) is the harmonic mean of an application's efficiency over the
platform set H, and zero if any platform in H is unsupported:

    Φ = |H| / Σ_{i∈H} 1/e_i(a, p)   if e_i > 0 for all i, else 0
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro import obs
from repro.perfport.perfmodel import EfficiencyMatrix


def phi(efficiencies: Iterable[float]) -> float:
    """Harmonic-mean Φ over one model's per-platform efficiencies."""
    effs = list(efficiencies)
    if not effs or any(e <= 0.0 for e in effs):
        return 0.0
    return len(effs) / sum(1.0 / e for e in effs)


def phi_table(matrix: EfficiencyMatrix) -> dict[str, float]:
    """Φ per model over the full platform set of the matrix."""
    with obs.span("phi", app=matrix.app, models=len(matrix.models)):
        return {m: phi(matrix.eff[i].tolist()) for i, m in enumerate(matrix.models)}


def phi_subset(matrix: EfficiencyMatrix, platforms: Sequence[str]) -> dict[str, float]:
    """Φ per model over a platform subset (navigation-chart scenarios)."""
    idx = [matrix.platforms.index(p) for p in platforms]
    return {m: phi(matrix.eff[i, idx].tolist()) for i, m in enumerate(matrix.models)}
