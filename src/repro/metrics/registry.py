"""Metric registry — the programmatic form of the paper's Table I."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class MetricInfo:
    """One row of Table I."""

    name: str
    measure: str  # "Absolute" | "Relative (Edit distance)" | "Relative (TED)" | "Relative (P)"
    domain: str  # "Perceived, Language agnostic" | "Perceived" | "Semantic" | "Runtime"
    variants: tuple[str, ...]


#: Table I, verbatim structure.
METRIC_TABLE: tuple[MetricInfo, ...] = (
    MetricInfo("SLOC", "Absolute", "Perceived, Language agnostic", ("+preprocessor", "+coverage")),
    MetricInfo("LLOC", "Absolute", "Perceived, Language agnostic", ("+preprocessor", "+coverage")),
    MetricInfo(
        "Source",
        "Relative (Edit distance)",
        "Perceived, Language agnostic",
        ("+preprocessor", "+coverage"),
    ),
    MetricInfo("Tsrc", "Relative (TED)", "Perceived", ("+preprocessor", "+coverage")),
    MetricInfo("Tsem", "Relative (TED)", "Semantic", ("+inlining", "+coverage")),
    MetricInfo("Tir", "Relative (TED)", "Semantic", ("+coverage",)),
    MetricInfo("Performance", "Relative (P)", "Runtime", ()),
)

