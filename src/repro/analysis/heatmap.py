"""Heatmap data model (Figs. 4, 7, 8).

A heatmap is rows (metric variants) × columns (models) of divergence-from-
baseline values in [0, 2] (Eq. 7's ``dmax`` is the larger size, not an
upper bound on the distance; see DESIGN.md "Eq. 7 normalisation"); the
clustering heatmap variant is models × models. Rendering lives in
:mod:`repro.viz`; this module only assembles the numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro import obs
from repro.distance.engine import DistanceEngine
from repro.workflow.codebase import IndexedCodebase
from repro.workflow.comparer import (
    MetricSpec,
    divergence_prepare,
    divergence_task,
    hash_demand_trees,
)


@dataclass
class HeatmapData:
    row_labels: list[str]
    col_labels: list[str]
    values: np.ndarray  # rows × cols

    def row(self, label: str) -> dict[str, float]:
        i = self.row_labels.index(label)
        return dict(zip(self.col_labels, self.values[i].tolist()))

    def cell(self, row: str, col: str) -> float:
        return float(self.values[self.row_labels.index(row), self.col_labels.index(col)])

    def to_csv(self) -> str:
        lines = ["metric," + ",".join(self.col_labels)]
        for label, row in zip(self.row_labels, self.values):
            lines.append(label + "," + ",".join(f"{v:.4f}" for v in row))
        return "\n".join(lines)


#: Metric-variant rows of the Fig. 7/8 heatmaps.
HEATMAP_SPECS: tuple[MetricSpec, ...] = (
    MetricSpec("SLOC"),
    MetricSpec("SLOC", pp=True),
    MetricSpec("LLOC"),
    MetricSpec("LLOC", pp=True),
    MetricSpec("Source"),
    MetricSpec("Source", pp=True),
    MetricSpec("Source", coverage=True),
    MetricSpec("Tsrc"),
    MetricSpec("Tsrc", pp=True),
    MetricSpec("Tsrc", coverage=True),
    MetricSpec("Tsem"),
    MetricSpec("Tsem", inlining=True),
    MetricSpec("Tsem", coverage=True),
    MetricSpec("Tir"),
    MetricSpec("Tir", coverage=True),
)


def heatmap_demands(
    baseline: IndexedCodebase,
    models: Sequence[IndexedCodebase],
    specs: Sequence[MetricSpec] = HEATMAP_SPECS,
) -> list[tuple]:
    """Flat (row-major) :func:`divergence_task` demand list of one heatmap
    grid, its trees already hashed (:func:`hash_demand_trees`) — a cell is
    the same pair demand a matrix or a nearest scan schedules. Shared by
    the batch path below and the serve layer's request batcher — same
    work, bit-identical grids on both surfaces.
    """
    tasks = [(baseline, cb, spec) for spec in specs for cb in models]
    hash_demand_trees(tasks)
    return tasks


def heatmap_from_values(
    rows: Sequence[str], cols: Sequence[str], flat: Sequence[float]
) -> HeatmapData:
    """Assemble :class:`HeatmapData` from row-major flat values."""
    values = np.zeros((len(rows), len(cols)))
    values[:] = np.asarray(list(flat), dtype=np.float64).reshape(len(rows), len(cols))
    return HeatmapData(list(rows), list(cols), values)


def divergence_heatmap(
    baseline: IndexedCodebase,
    models: Sequence[IndexedCodebase],
    specs: Sequence[MetricSpec] = HEATMAP_SPECS,
    engine: Optional[DistanceEngine] = None,
) -> HeatmapData:
    """Divergence-from-baseline heatmap over metric variants × models.

    All rows × cols cells are independent evaluations, so the whole grid is
    one flat task list for the engine — a single pool amortised across every
    metric variant.
    """
    eng = engine if engine is not None else DistanceEngine()
    cols = [cb.model for cb in models]
    rows = [s.label for s in specs]
    with obs.span("heatmap", rows=len(rows), cols=len(cols), jobs=eng.jobs):
        flat = eng.map_tasks(
            divergence_task,
            heatmap_demands(baseline, models, specs),
            prepare=divergence_prepare,
        )
        return heatmap_from_values(rows, cols, flat)
