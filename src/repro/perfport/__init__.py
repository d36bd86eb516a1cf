"""Performance portability (Φ) and the combined navigation charts (§VI).

The paper benchmarks TeaLeaf/CloverLeaf on six platforms (Table III). With
no hardware available, a roofline performance model generates the
efficiency matrix (see DESIGN.md substitutions): platform peaks from Table
III, per-(app, model, platform) support and efficiency factors calibrated
to the paper's qualitative results, plus seeded measurement noise. Φ,
cascade plots and navigation charts consume only that matrix, so their
shapes are exactly the artefacts the paper reports.
"""

from repro.perfport.platforms import Platform, PLATFORMS, platform_by_abbr
from repro.perfport.perfmodel import PerfModel, EfficiencyMatrix
from repro.perfport.pp_metric import phi
from repro.perfport.cascade import CascadeData, cascade
from repro.perfport.navigation import NavigationChart, NavPoint, navigation_chart

__all__ = [
    "Platform",
    "PLATFORMS",
    "platform_by_abbr",
    "PerfModel",
    "EfficiencyMatrix",
    "phi",
    "CascadeData",
    "cascade",
    "NavigationChart",
    "NavPoint",
    "navigation_chart",
]
