"""Per-file quarantine in index_codebase: damaged units degrade, strict raises."""

import pytest

from repro import diag, obs
from repro.lang.source import VirtualFS
from repro.util.errors import ReproError
from repro.workflow.codebase import ModelSpec
from repro.workflow.indexer import index_codebase

GOOD_CPP = "int main() { return 0; }\n"
# no mode can absorb this: the conditional never closes
BROKEN_CPP = "#if 1\nint main() { return 0; }\n"
GOOD_F90 = "program p\nx = 1\nend program p\n"
ALL_TREES = ("src", "src+pp", "sem", "sem+i", "ir")


def make_fs(**files):
    fs = VirtualFS()
    for p, t in files.items():
        fs.add(p.replace("__", "/"), t)
    return fs


def cpp_spec(units):
    return ModelSpec(app="t", model="m", lang="cpp", units=units, entry=None)


class TestQuarantine:
    def test_broken_unit_degrades_others_survive(self):
        fs = make_fs(**{"good.cpp": GOOD_CPP, "bad.cpp": BROKEN_CPP})
        spec = cpp_spec({"good": "good.cpp", "bad": "bad.cpp"})
        with diag.capture() as sink:
            cb = index_codebase(spec, fs)
        assert "index/quarantined" in sink.by_code()
        assert not cb.units["good"].degraded
        assert cb.units["good"].t_sem is not None
        bad = cb.units["bad"]
        assert bad.degraded
        assert bad.t_sem is None and bad.t_src_pre is None and bad.t_ir is None

    def test_each_diagnostic_reaches_the_caller_once(self):
        # a unit's diagnostics are captured (they decide whether it is
        # pristine), then appended to the caller's sink without emitting
        # them again: diag.<severity> counts each one where it was raised
        fs = make_fs(**{"good.cpp": GOOD_CPP, "bad.cpp": BROKEN_CPP})
        spec = cpp_spec({"good": "good.cpp", "bad": "bad.cpp"})
        with diag.capture() as sink, obs.collect() as col:
            index_codebase(spec, fs)
        seen = [(d.severity, d.code, d.message, d.file, d.line, d.col) for d in sink.diagnostics]
        assert seen and len(seen) == len(set(seen))
        assert all(d.file == "bad.cpp" for d in sink.diagnostics)
        for severity in ("note", "warning", "error", "fatal"):
            assert col.counters.get(f"diag.{severity}", 0) == sink.count(severity)

    def test_degraded_unit_keeps_sloc_metrics(self):
        fs = make_fs(**{"bad.cpp": BROKEN_CPP})
        with diag.capture():
            cb = index_codebase(cpp_spec({"bad": "bad.cpp"}), fs)
        bad = cb.units["bad"]
        assert bad.lloc_pre.get("bad.cpp", 0) > 0
        assert bad.source_lines_pre
        assert len(bad.source_lines_pre) == len(bad.source_tags_pre)

    def test_strict_mode_raises(self):
        fs = make_fs(**{"bad.cpp": BROKEN_CPP})
        with pytest.raises(ReproError):
            index_codebase(cpp_spec({"bad": "bad.cpp"}), fs, strict=True)

    def test_missing_file_quarantined(self):
        fs = make_fs(**{"good.cpp": GOOD_CPP})
        spec = cpp_spec({"good": "good.cpp", "gone": "gone.cpp"})
        with diag.capture() as sink:
            cb = index_codebase(spec, fs)
        assert cb.units["gone"].degraded
        assert sink.has_errors() or "index/quarantined" in sink.by_code()

    def test_unknown_language_always_raises(self):
        # a spec error, not file damage: never quarantined, even non-strict
        spec = ModelSpec(app="t", model="m", lang="cobol", units={"main": "x"})
        with pytest.raises(ReproError) as ei:
            index_codebase(spec, make_fs(x="y"))
        msg = str(ei.value)
        assert "cobol" in msg and "x" in msg and "t/m" in msg

    def test_quarantine_emits_note_with_unit_role(self):
        fs = make_fs(**{"bad.cpp": BROKEN_CPP})
        with diag.capture() as sink:
            index_codebase(cpp_spec({"bad": "bad.cpp"}), fs)
        notes = [d for d in sink.diagnostics if d.code == "index/quarantined"]
        assert any("bad" in d.message for d in notes)


class TestLexicalDamageIsRepaired:
    """Recover mode repairs lexical damage in every lex of a unit, and each
    file is lexed once, so one bad character is one warning."""

    def test_bad_character_in_cpp_unit_keeps_its_trees(self):
        fs = make_fs(**{"bad.cpp": "int main() {\n int i = 1 @ 2;\n return 0;\n}"})
        with diag.capture() as sink:
            cb = index_codebase(cpp_spec({"main": "bad.cpp"}), fs)
        unit = cb.units["main"]
        assert not unit.degraded
        assert all(unit.tree(which) is not None for which in ALL_TREES)
        codes = sink.by_code()
        assert codes.get("lex/unexpected-char") == 1
        assert "index/quarantined" not in codes

    def test_bad_character_in_fortran_unit_warns_once(self):
        fs = make_fs(**{"bad.f90": "program p\ninteger :: i\ni = 1 @ 2\nend program p"})
        spec = ModelSpec(app="t", model="m", lang="fortran", units={"main": "bad.f90"})
        with diag.capture() as sink:
            cb = index_codebase(spec, fs)
        assert not cb.units["main"].degraded
        assert sink.by_code().get("lex/unexpected-char") == 1

    @pytest.mark.parametrize(
        "src, col",
        [("#pragma omp parallel for @\n", 26), ("#define X 1 @ 2\n", 13)],
        ids=["retained-pragma", "define-body"],
    )
    def test_bad_character_in_a_directive_warns_once_at_its_column(self, src, col):
        # the lexer lexes a directive's body once, where it stands; the
        # preprocessor, T_src pre/post and the parser read those tokens
        fs = make_fs(**{"bad.cpp": src + "int main() { return 0; }\n"})
        with diag.capture() as sink:
            cb = index_codebase(cpp_spec({"main": "bad.cpp"}), fs)
        assert not cb.units["main"].degraded
        assert [(d.code, d.file, d.line, d.col) for d in sink.diagnostics] == [
            ("lex/unexpected-char", "bad.cpp", 1, col)
        ]

    def test_unterminated_comment_keeps_its_trees(self):
        fs = make_fs(**{"bad.cpp": "int main() { /* unterminated\n"})
        with diag.capture() as sink:
            cb = index_codebase(cpp_spec({"bad": "bad.cpp"}), fs)
        unit = cb.units["bad"]
        assert not unit.degraded
        assert all(unit.tree(which) is not None for which in ALL_TREES)
        codes = sink.by_code()
        assert codes.get("lex/unterminated-comment") == 1
        assert "index/quarantined" not in codes


class TestDegradedRoundTrip:
    def test_degraded_flag_survives_codebase_db(self, tmp_path):
        from repro.workflow.codebasedb import load_codebase_db, save_codebase_db

        fs = make_fs(**{"good.cpp": GOOD_CPP, "bad.cpp": BROKEN_CPP})
        spec = cpp_spec({"good": "good.cpp", "bad": "bad.cpp"})
        with diag.capture():
            cb = index_codebase(spec, fs)
        p = tmp_path / "db.svdb"
        save_codebase_db(cb, p)
        back = load_codebase_db(p)
        assert back.units["bad"].degraded
        assert not back.units["good"].degraded


class TestFortranQuarantine:
    def test_mixed_language_corpus_with_broken_fortran(self):
        # lexically fine but so damaged the parser gives up at unit level
        fs = make_fs(**{"ok.f90": GOOD_F90})
        spec = ModelSpec(app="t", model="m", lang="fortran", units={"main": "ok.f90"})
        with diag.capture() as sink:
            cb = index_codebase(spec, fs)
        assert not cb.units["main"].degraded
        assert sink.count() == 0
