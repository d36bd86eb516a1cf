"""Relative metrics: Source distance, tree metrics, TBMD facade, dmax."""

import pytest

from repro.lang.source import VirtualFS
from repro.metrics import source_distance, tbmd, tree_distance, module_coupling
from repro.workflow.codebase import ModelSpec, match_units
from repro.workflow.indexer import index_codebase


def index(text, model="m", role="main", **files):
    fs = VirtualFS()
    for p, t in files.items():
        fs.add(p.replace("__", "/"), t)
    fs.add("main.cpp", text)
    spec = ModelSpec(app="t", model=model, lang="cpp", units={role: "main.cpp"})
    return index_codebase(spec, fs)


SERIAL = "void f(double* a, int n) {\nfor (int i = 0; i < n; i++) { a[i] = 0.0; }\n}\n"
OMP = "void f(double* a, int n) {\n#pragma omp parallel for\nfor (int i = 0; i < n; i++) { a[i] = 0.0; }\n}\n"
DIFFERENT = "int unrelated(int x) {\nreturn x * 37;\n}\n"


class TestSourceDistance:
    def test_identical_zero(self):
        a = index(SERIAL)
        b = index(SERIAL, model="m2")
        d, dmax = source_distance(a, b)
        assert d == 0 and dmax > 0

    def test_small_edit_small_distance(self):
        a = index(SERIAL)
        b = index(OMP, model="m2")
        d, dmax = source_distance(a, b)
        assert 0 < d / dmax < 0.5

    def test_disjoint_near_max(self):
        a = index(SERIAL)
        b = index(DIFFERENT, model="m2")
        d, dmax = source_distance(a, b)
        assert d / dmax > 0.9


class TestTreeDistance:
    def test_identical_zero_for_all_kinds(self):
        a = index(SERIAL)
        b = index(SERIAL, model="m2")
        for kind in ("src", "src+pp", "sem", "sem+i", "ir"):
            d, _ = tree_distance(a, b, kind)
            assert d == 0, kind

    def test_renamed_code_is_identical_semantically(self):
        # name normalisation: renaming variables must not diverge
        renamed = SERIAL.replace("a[", "buf[").replace("double* a", "double* buf").replace(
            " n;", " count;"
        ).replace("< n", "< count").replace(", int n", ", int count")
        a = index(SERIAL)
        b = index(renamed, model="m2")
        d, _ = tree_distance(a, b, "sem")
        assert d == 0

    def test_unknown_kind_rejected(self):
        a = index(SERIAL)
        with pytest.raises(ValueError):
            tree_distance(a, a, "bogus")

    def test_dmax_normalisation_bounds(self):
        a = index(SERIAL)
        b = index(DIFFERENT, model="m2")
        d, dmax = tree_distance(a, b, "sem")
        assert dmax > 0
        assert d / dmax <= 1.0 + 1e-9

    def test_system_headers_masked_by_default(self):
        with_sys = index(
            '#include <big.h>\n' + SERIAL,
            model="m2",
            **{"<system>__big.h": "int h1();\nint h2();\nint h3();\n" * 20},
        )
        plain = index(SERIAL)
        d_masked, _ = tree_distance(plain, with_sys, "sem", include_system=False)
        d_open, _ = tree_distance(plain, with_sys, "sem", include_system=True)
        assert d_masked < d_open


class TestMatchUnits:
    def test_same_roles_paired(self):
        a = index(SERIAL, role="solver")
        b = index(OMP, model="m2", role="solver")
        pairs = match_units(a, b)
        assert len(pairs) == 1
        assert pairs[0][0].role == pairs[0][1].role == "solver"

    def test_missing_role_pairs_with_none(self):
        a = index(SERIAL, role="solver")
        b = index(OMP, model="m2", role="driver")
        pairs = dict()
        for ua, ub in match_units(a, b):
            pairs[(ua.role if ua else None, ub.role if ub else None)] = True
        assert (None, "driver") in pairs and ("solver", None) in pairs

    def test_unmatched_units_count_fully(self):
        a = index(SERIAL, role="solver")
        b = index(SERIAL, model="m2", role="driver")
        d, dmax = tree_distance(a, b, "sem")
        # SERIAL's T_sem has 26 nodes: translation-unit, fn, return
        # type-name, two params (3 + 2), compound, for, decl-stmt (4),
        # binop (3), unop (2), and the loop body compound > expr-stmt >
        # assign > subscript (3) + literal. Solver is deleted whole and
        # driver inserted whole (d = 26 + 26), and each unmatched unit
        # adds its own size to dmax (26 + 26).
        assert (d, dmax) == (52, 52)
        assert tree_distance(b, a, "sem") == (52, 52)


class TestTbmdFacade:
    def test_profile_contains_all_rows(self, stream_serial, stream_omp):
        res = tbmd(stream_serial, stream_omp)
        for key in ("SLOC", "LLOC", "Source", "Tsrc", "Tsem", "Tsem+i", "Tir"):
            assert key in res.values, key

    def test_self_comparison_all_zero(self, stream_serial):
        res = tbmd(stream_serial, stream_serial)
        for key, v in res.values.items():
            assert v == pytest.approx(0.0), key

    def test_coverage_rows_present_when_profiled(self, stream_serial, stream_omp):
        res = tbmd(stream_serial, stream_omp)
        assert "Tsem+cov" in res.values

    def test_raw_pairs_kept(self, stream_serial, stream_omp):
        res = tbmd(stream_serial, stream_omp)
        d, dmax = res.raw["Tsem"]
        assert res.values["Tsem"] == pytest.approx(d / dmax)

    def test_rows_equal_heatmap_cells(self, stream_serial, stream_omp, stream_cuda):
        """tbmd() is a Fig. 7/8 heatmap column: one formula per row."""
        from repro.analysis.heatmap import HEATMAP_SPECS
        from repro.workflow.comparer import divergence

        for other in (stream_omp, stream_cuda):
            res = tbmd(stream_serial, other)
            for s in HEATMAP_SPECS:
                assert res.values[s.label] == divergence(stream_serial, other, s), s.label


class TestCoupling:
    def test_single_file_zero(self):
        cb = index(SERIAL)
        assert module_coupling(cb) == 0.0

    def test_header_dependency_counted(self):
        cb = index('#include "h.h"\n' + SERIAL, **{"h.h": "int helper();\n"})
        assert module_coupling(cb) > 0.0
