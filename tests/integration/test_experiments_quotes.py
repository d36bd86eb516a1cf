"""Every number EXPERIMENTS.md quotes from a committed paper output equals
that output at the quoted precision.

Each entry of ``QUOTES`` names a snippet of EXPERIMENTS.md, the number it
quotes, and where the number comes from: a cell of a committed CSV under
``benchmarks/out``, a number in the Measured column of
``findings_claims.txt``, or a value derived from such cells (a difference,
a ratio, a row count). The source is read as its committed decimal string
and rounded half up with :class:`~decimal.Decimal` to the quoted places, so
miniBUDE's Source+cov sycl-usm ``0.4250`` quotes as 0.43 (float rounding
gives 0.42). Changing a quote or a committed value fails here, so a change
that moves a number also rewrites the sentence that quotes it. CI's
``paper-outputs`` job ties the committed files to the benches that write
them, which closes the chain from bench to prose.

Left out: numbers whose only committed source is an SVG (the Figs. 4–6
dendrograms, Figs. 9/10 and Fig. 15) and values EXPERIMENTS.md gives as
history (Φ before the sha256-seeded jitter).
"""

import csv
import functools
import re
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
OUT = ROOT / "benchmarks" / "out"
FIG7 = "fig7_minibude_heatmap.csv"
FIG11 = "fig11_tealeaf_cascade.csv"
FIG12 = "fig12_cloverleaf_cascade.csv"
FIG13 = "fig13_cloverleaf_navchart.csv"
FIG14 = "fig14_tealeaf_navchart.csv"


@functools.cache
def _doc() -> str:
    """EXPERIMENTS.md with every run of whitespace folded to one space."""
    return " ".join((ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8").split())


@functools.cache
def _rows(name: str) -> list[dict]:
    with open(OUT / name, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def cell(name: str, column: str, **match: str) -> Decimal:
    """The one cell of ``column`` in the row of ``name`` matching ``match``."""
    rows = [r for r in _rows(name) if all(r[k] == v for k, v in match.items())]
    assert len(rows) == 1, (name, match)
    return Decimal(rows[0][column])


def fig7(metric: str, model: str) -> Decimal:
    return cell(FIG7, model, metric=metric)


def phi(name: str, model: str) -> Decimal:
    """A model's Φ over all six platforms (the last cascade position)."""
    return cell(name, "phi", model=model, position="6")


def claim(prefix: str, i: int) -> Decimal:
    """The ``i``-th number in the Measured column of the findings_claims.txt
    row whose claim starts with ``prefix``."""
    text = (OUT / "findings_claims.txt").read_text(encoding="utf-8")
    for line in text.splitlines()[2:]:
        name, measured, _holds = (part.strip() for part in line.split("|"))
        if name.startswith(prefix):
            return Decimal(re.findall(r"\d+\.\d+", measured)[i])
    raise AssertionError(f"no findings row starts with {prefix!r}")


def _host_only_phi(name: str) -> list:
    models = {r["model"] for r in _rows(name)}
    quoted = ["serial", "omp", "tbb", "stdpar", "cuda", "hip"]
    return [(m, lambda m=m: phi(name, m)) for m in quoted if m in models]


OMP_ACC = "Fortran OpenACC no parallel tokens"
CLOSER = "Fortran closer than C++ at Tsem"
FIG6 = (
    "at T_sem loop-form OpenACC sits *closer to sequential* (0.060) "
    "than OpenMP does (0.155)"
)
FIG11_12 = (
    "omp-target / sycl-usm / sycl-acc / kokkos keep Φ = 0.88 / 0.92 / 0.90 / 0.95 "
    "on TeaLeaf and 0.88 / 0.90 / 0.91 / 0.95 on CloverLeaf"
)
HOST_ONLY = (
    "host-only (serial/omp/tbb/stdpar) and single-vendor (cuda/hip) models "
    "collapse to Φ = 0 over the full set"
)

#: (snippet of EXPERIMENTS.md, the number it quotes, the number's source)
QUOTES = [
    # Fig. 7 claims table (miniBUDE heatmap)
    ("| serial column ≡ 0 for all metrics | all 15 rows exactly 0 |", "15",
     lambda: Decimal(len(_rows(FIG7)))),
    ("| serial column ≡ 0 for all metrics | all 15 rows exactly 0 |", "0",
     lambda: max(Decimal(r["serial"]) for r in _rows(FIG7))),
    ("SLOC+pp: sycl 0.92 vs omp 0.09 (10×)", "0.92", lambda: fig7("SLOC+pp", "sycl-usm")),
    ("SLOC+pp: sycl 0.92 vs omp 0.09 (10×)", "0.09", lambda: fig7("SLOC+pp", "omp")),
    ("SLOC+pp: sycl 0.92 vs omp 0.09 (10×)", "10",
     lambda: fig7("SLOC+pp", "sycl-usm") / fig7("SLOC+pp", "omp")),
    ("| OpenMP T_sem > T_src | 0.098 vs 0.089 |", "0.098", lambda: fig7("Tsem", "omp")),
    ("| OpenMP T_sem > T_src | 0.098 vs 0.089 |", "0.089", lambda: fig7("Tsrc", "omp")),
    ("omp jump −0.06 vs kokkos −0.05", "−0.06",
     lambda: fig7("Tsem+i", "omp") - fig7("Tsem", "omp")),
    ("omp jump −0.06 vs kokkos −0.05", "−0.05",
     lambda: fig7("Tsem+i", "kokkos") - fig7("Tsem", "kokkos")),
    ("cuda 0.27 / omp-target 0.18 vs omp 0.03", "0.27", lambda: fig7("Tir", "cuda")),
    ("cuda 0.27 / omp-target 0.18 vs omp 0.03", "0.18", lambda: fig7("Tir", "omp-target")),
    ("cuda 0.27 / omp-target 0.18 vs omp 0.03", "0.03", lambda: fig7("Tir", "omp")),
    # ablations: coverage masking (miniBUDE)
    ("miniBUDE Source+cov 0.43 vs Source 0.93 for sycl-usm", "0.43",
     lambda: fig7("Source+cov", "sycl-usm")),
    ("miniBUDE Source+cov 0.43 vs Source 0.93 for sycl-usm", "0.93",
     lambda: fig7("Source", "sycl-usm")),
    # Figs. 11/12 cascades
    *[
        (FIG11_12, q, lambda n=n, m=m: phi(n, m))
        for n, values in (
            (FIG11, ("0.88", "0.92", "0.90", "0.95")),
            (FIG12, ("0.88", "0.90", "0.91", "0.95")),
        )
        for m, q in zip(("omp-target", "sycl-usm", "sycl-acc", "kokkos"), values)
    ],
    *[(HOST_ONLY, "0", src) for n in (FIG11, FIG12) for _m, src in _host_only_phi(n)],
    ("CloverLeaf sycl-acc now sits above sycl-usm (0.907 vs 0.899;", "0.907",
     lambda: phi(FIG12, "sycl-acc")),
    ("CloverLeaf sycl-acc now sits above sycl-usm (0.907 vs 0.899;", "0.899",
     lambda: phi(FIG12, "sycl-usm")),
    # Figs. 13/14 navigation charts (CloverLeaf / TeaLeaf)
    ("sycl-acc perceived bloat (T_src − T_sem) = +0.25 / +0.15", "+0.25",
     lambda: cell(FIG13, "tsrc", model="sycl-acc") - cell(FIG13, "tsem", model="sycl-acc")),
    ("sycl-acc perceived bloat (T_src − T_sem) = +0.25 / +0.15", "+0.15",
     lambda: cell(FIG14, "tsrc", model="sycl-acc") - cell(FIG14, "tsem", model="sycl-acc")),
    *[
        ("cuda plotted at Φ=0 with T_sem 0.29 / 0.30", q,
         lambda n=n, c=c: cell(n, c, model="cuda"))
        for n, c, q in (
            (FIG13, "phi", "0"),
            (FIG14, "phi", "0"),
            (FIG13, "tsem", "0.29"),
            (FIG14, "tsem", "0.30"),
        )
    ],
    # Fig. 6 prose, measured by the findings bench
    (FIG6, "0.060", lambda: claim(OMP_ACC, 0)),
    (FIG6, "0.155", lambda: claim(OMP_ACC, 1)),
    ("Fortran seq↔omp = 0.155 vs", "0.155", lambda: claim(CLOSER, 0)),
    # §V-C / §VIII findings table
    ("| OpenMP T_sem > T_src (directive semantics are compiler-ascribed) | 0.331 vs 0.109 |",
     "0.331", lambda: claim("OpenMP Tsem > Tsrc", 0)),
    ("| OpenMP T_sem > T_src (directive semantics are compiler-ascribed) | 0.331 vs 0.109 |",
     "0.109", lambda: claim("OpenMP Tsem > Tsrc", 1)),
    ("| CUDA ≈ HIP | mutual T_sem divergence 0.042 |", "0.042", lambda: claim("CUDA≈HIP", 0)),
    ("| SYCL SLOC+pp blow-up | 0.90 vs omp 0.12 |", "0.90",
     lambda: claim("SYCL SLOC+pp blow-up", 0)),
    ("| SYCL accessor > USM divergence | 0.771 vs 0.516 |", "0.771",
     lambda: claim("sycl-acc > sycl-usm", 0)),
    ("| SYCL accessor > USM divergence | 0.771 vs 0.516 |", "0.516",
     lambda: claim("sycl-acc > sycl-usm", 1)),
    ("| TBB ≈ StdPar | mutual 0.328 <", "0.328", lambda: claim("TBB≈StdPar", 0)),
    ("| offload T_ir pollution | cuda 0.591 vs omp 0.140 |", "0.591",
     lambda: claim("offload Tir pollution", 0)),
    ("| offload T_ir pollution | cuda 0.591 vs omp 0.140 |", "0.140",
     lambda: claim("offload Tir pollution", 1)),
    ("| Fortran OpenACC adds no parallel tokens | acc 0.060 vs omp 0.155 from sequential |",
     "0.060", lambda: claim(OMP_ACC, 0)),
    ("| Fortran OpenACC adds no parallel tokens | acc 0.060 vs omp 0.155 from sequential |",
     "0.155", lambda: claim(OMP_ACC, 1)),
    # values the findings bench asserts on and prints since it writes them
    ("| SYCL SLOC+pp blow-up | 0.90 vs omp 0.12 |", "0.12",
     lambda: claim("SYCL SLOC+pp blow-up", 1)),
    ("C++ serial↔cuda = 0.410", "0.410", lambda: claim(CLOSER, 1)),
    ("| Fortran models closer than C++ at T_sem (§V-B) | Fortran seq↔omp 0.155 vs C++ "
     "serial↔cuda 0.410 |", "0.155", lambda: claim(CLOSER, 0)),
    ("| Fortran models closer than C++ at T_sem (§V-B) | Fortran seq↔omp 0.155 vs C++ "
     "serial↔cuda 0.410 |", "0.410", lambda: claim(CLOSER, 1)),
]


@pytest.mark.parametrize(
    "snippet, quoted, source",
    QUOTES,
    ids=[f"{i:02d}:{quoted}" for i, (_s, quoted, _f) in enumerate(QUOTES)],
)
def test_quoted_number_matches_its_committed_source(snippet, quoted, source):
    assert snippet in _doc(), f"EXPERIMENTS.md no longer says {snippet!r}"
    assert quoted in snippet
    want = Decimal(quoted.replace("−", "-"))
    got = source().quantize(want, rounding=ROUND_HALF_UP)
    assert got == want, f"{snippet!r} quotes {quoted}; the committed value rounds to {got}"
