"""The TBMD facade: one call, every metric variant (paper §III-C).

``tbmd(a, b)`` computes the full divergence profile of codebase ``b``
relative to ``a`` — the rows of the Fig. 7/8 heatmaps:

``SLOC``, ``SLOC+pp``, ``LLOC``, ``LLOC+pp``, ``Source``, ``Source+pp``,
``Tsrc``, ``Tsrc+pp``, ``Tsem``, ``Tsem+i``, ``Tir`` and each metric's
``+cov`` variant when coverage profiles exist.

Relative metrics report normalised divergence ``d / dmax`` in ``[0, 2]``:
Eq. 7's ``dmax`` is the larger size, not an upper bound on the edit
distance, so tree metrics stay below 2 and ``Source`` reaches 2 only for
equal-length units that share no line. Absolute metrics (SLOC/LLOC)
report :func:`count_divergence`, in ``[0, 1]``, so everything shares one
axis. Every value equals what :func:`repro.workflow.comparer.divergence`
reports for the same label and, like it, is symmetric in ``a`` and ``b``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.metrics.lloc import lloc
from repro.metrics.sloc import sloc
from repro.metrics.source_dist import source_distance
from repro.metrics.treemetrics import tree_distance
from repro.workflow.codebase import IndexedCodebase


@dataclass
class TbmdResult:
    """Divergence of codebase ``b`` from ``a`` under every metric variant."""

    app: str
    model_a: str
    model_b: str
    values: dict[str, float] = field(default_factory=dict)
    raw: dict[str, tuple[float, float]] = field(default_factory=dict)  # (d, dmax)

    def __getitem__(self, key: str) -> float:
        return self.values[key]

    def metrics(self) -> list[str]:
        return sorted(self.values)


def count_divergence(va: float, vb: float) -> float:
    """Divergence of two absolute counts (SLOC/LLOC): the difference over
    the larger count, ``|vb - va| / max(va, vb, 1)``. The one formula behind
    the SLOC/LLOC rows of both this facade and the heatmap."""
    return abs(vb - va) / max(va, vb, 1)


def tbmd(
    a: IndexedCodebase,
    b: IndexedCodebase,
    with_coverage: bool = True,
    with_pp: bool = True,
    include_system: bool = False,
) -> TbmdResult:
    """Full TBMD profile of ``b`` relative to baseline ``a``."""
    res = TbmdResult(app=b.app, model_a=a.model, model_b=b.model)
    mask_a = a.mask() if with_coverage else None
    mask_b = b.mask() if with_coverage else None
    have_cov = mask_a is not None and mask_b is not None

    # absolute metrics → count divergence
    res.values["SLOC"] = count_divergence(sloc(a, "pre"), sloc(b, "pre"))
    res.values["LLOC"] = count_divergence(lloc(a, "pre"), lloc(b, "pre"))
    if with_pp:
        res.values["SLOC+pp"] = count_divergence(sloc(a, "pp"), sloc(b, "pp"))
        res.values["LLOC+pp"] = count_divergence(lloc(a, "pp"), lloc(b, "pp"))

    def norm(pair: tuple[float, float]) -> float:
        d, dmax = pair
        return d / dmax if dmax else 0.0

    def put(name: str, pair: tuple[float, float]) -> None:
        res.raw[name] = pair
        res.values[name] = norm(pair)

    put("Source", source_distance(a, b, "pre"))
    if with_pp:
        put("Source+pp", source_distance(a, b, "pp"))
    put("Tsrc", tree_distance(a, b, "src", include_system=include_system))
    if with_pp:
        put("Tsrc+pp", tree_distance(a, b, "src+pp", include_system=include_system))
    put("Tsem", tree_distance(a, b, "sem", include_system=include_system))
    put("Tsem+i", tree_distance(a, b, "sem+i", include_system=include_system))
    put("Tir", tree_distance(a, b, "ir", include_system=include_system))

    if have_cov:
        put("Source+cov", source_distance(a, b, "pre", mask_a, mask_b))
        put("Tsrc+cov", tree_distance(a, b, "src", mask_a, mask_b, include_system))
        put("Tsem+cov", tree_distance(a, b, "sem", mask_a, mask_b, include_system))
        put("Tir+cov", tree_distance(a, b, "ir", mask_a, mask_b, include_system))
    return res
