"""§V-B/§V-C/§VIII textual findings, measured on the corpus and printed as
a paper-vs-measured table (the source for EXPERIMENTS.md). Every value a
row asserts on is printed in its Measured column, so the prose can quote
it and ``tests/integration/test_experiments_quotes.py`` can pin it."""

from conftest import run_once

from repro.analysis import render_table
from repro.workflow.comparer import MetricSpec, divergence


def test_findings_summary_table(benchmark, babelstream_all, fortran_all, outdir):
    s = babelstream_all

    def measure():
        def d(base, model, spec):
            return divergence(s[base], s[model], spec)

        rows = []
        tsem = MetricSpec("Tsem")
        tsrc = MetricSpec("Tsrc")
        rows.append(
            (
                "OpenMP Tsem > Tsrc (§V-C)",
                f"{d('serial', 'omp', tsem):.3f} vs {d('serial', 'omp', tsrc):.3f}",
                d("serial", "omp", tsem) > d("serial", "omp", tsrc),
            )
        )
        rows.append(
            (
                "CUDA≈HIP (Fig 4)",
                f"{divergence(s['cuda'], s['hip'], tsem):.3f}",
                divergence(s["cuda"], s["hip"], tsem) < d("serial", "cuda", tsem) / 2,
            )
        )
        rows.append(
            (
                "SYCL SLOC+pp blow-up (§V-C)",
                f"sycl-usm {d('serial', 'sycl-usm', MetricSpec('SLOC', pp=True)):.2f} "
                f"vs omp {d('serial', 'omp', MetricSpec('SLOC', pp=True)):.2f}",
                d("serial", "sycl-usm", MetricSpec("SLOC", pp=True))
                > 3 * d("serial", "omp", MetricSpec("SLOC", pp=True)),
            )
        )
        rows.append(
            (
                "sycl-acc > sycl-usm (§V)",
                f"{d('serial', 'sycl-acc', tsem):.3f} vs {d('serial', 'sycl-usm', tsem):.3f}",
                d("serial", "sycl-acc", tsem) > d("serial", "sycl-usm", tsem),
            )
        )
        rows.append(
            (
                "TBB≈StdPar (§V-A)",
                f"{divergence(s['tbb'], s['stdpar'], tsem):.3f}",
                divergence(s["tbb"], s["stdpar"], tsem) < d("serial", "tbb", tsem),
            )
        )
        rows.append(
            (
                "offload Tir pollution (§V-C)",
                f"cuda {d('serial', 'cuda', MetricSpec('Tir')):.3f} vs omp {d('serial', 'omp', MetricSpec('Tir')):.3f}",
                d("serial", "cuda", MetricSpec("Tir")) > d("serial", "omp", MetricSpec("Tir")),
            )
        )
        ft = fortran_all
        rows.append(
            (
                "Fortran OpenACC no parallel tokens (§V-B)",
                f"acc {divergence(ft['sequential'], ft['openacc'], tsem):.3f} vs omp {divergence(ft['sequential'], ft['omp'], tsem):.3f}",
                divergence(ft["sequential"], ft["openacc"], tsem)
                < divergence(ft["sequential"], ft["omp"], tsem),
            )
        )
        rows.append(
            (
                "Fortran closer than C++ at Tsem (§V-B)",
                f"seq-omp {divergence(ft['sequential'], ft['omp'], tsem):.3f} "
                f"vs serial-cuda {d('serial', 'cuda', tsem):.3f}",
                divergence(ft["sequential"], ft["omp"], tsem) < d("serial", "cuda", tsem),
            )
        )
        return rows

    rows = run_once(benchmark, measure)
    table = render_table(
        ["Paper claim", "Measured", "Holds"], [(c, m, "yes" if ok else "NO") for c, m, ok in rows]
    )
    print("\n" + table)
    (outdir / "findings_claims.txt").write_text(table)
    assert all(ok for _c, _m, ok in rows), table
