"""Distance kernels (paper §III-B, §IV-E).

Tree Edit Distance is the basis of TBMD; string/sequence distances back the
``Source`` metric. The production path is a NumPy row-sweep Zhang–Shasha
TED (exact, unit costs — matching the paper's choice of "unit weight of one
for all nodes and operations"), per pair or packed across pairs; a
pure-Python general-cost implementation and an exponential brute-force
reference exist for custom weights and property testing.
"""

from repro.distance.cascade import cascade_distance
from repro.distance.ted import ted, ted_many, ted_normalized, TedResult, UnitCost, Cost
from repro.distance.zhang_shasha import zhang_shasha_distance, zhang_shasha_generic
from repro.distance.zs_cross import zhang_shasha_cross
from repro.distance.reference import brute_force_ted
from repro.distance.wu_manber import onp_edit_distance, lcs_length
from repro.distance.myers import myers_edit_distance
from repro.distance.levenshtein import levenshtein, levenshtein_bounded
from repro.distance.engine import DistanceEngine

__all__ = [
    "DistanceEngine",
    "ted",
    "ted_many",
    "ted_normalized",
    "TedResult",
    "UnitCost",
    "Cost",
    "cascade_distance",
    "zhang_shasha_distance",
    "zhang_shasha_generic",
    "zhang_shasha_cross",
    "brute_force_ted",
    "onp_edit_distance",
    "lcs_length",
    "myers_edit_distance",
    "levenshtein",
    "levenshtein_bounded",
]
