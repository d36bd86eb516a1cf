"""Codebase summarisation metrics (paper Table I).

Absolute measures (:func:`sloc`, :func:`lloc`) yield a single value per
codebase; relative measures (:func:`source_distance`, the TBMD tree metrics)
compare two codebases and come with a ``dmax`` normaliser (Eq. 7). Every
metric supports the variants Table I lists: ``+preprocessor`` and/or
``+coverage`` for the perceived metrics, ``+inlining``/``+coverage`` for the
semantic tree metrics.
"""

from repro.metrics.sloc import sloc, sloc_per_file
from repro.metrics.lloc import lloc
from repro.metrics.source_dist import source_distance
from repro.metrics.treemetrics import tree_distance, unit_trees
from repro.metrics.tbmd import tbmd, TbmdResult
from repro.metrics.registry import METRIC_TABLE, MetricInfo
from repro.metrics.coupling import module_coupling, dependency_graph

__all__ = [
    "sloc",
    "sloc_per_file",
    "lloc",
    "source_distance",
    "tree_distance",
    "unit_trees",
    "tbmd",
    "TbmdResult",
    "METRIC_TABLE",
    "MetricInfo",
    "module_coupling",
    "dependency_graph",
]
