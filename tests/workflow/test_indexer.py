"""Indexer unit tests (beyond the corpus integration coverage)."""

import sys
from collections import Counter

import pytest

from repro import diag, obs
from repro.compiler import CompileOptions
from repro.lang.source import VirtualFS
from repro.trees.hashing import structural_hash
from repro.util.errors import InterpreterError, ReproError
from repro.workflow.codebase import ModelSpec
from repro.workflow.indexer import index_codebase, index_cpp_unit


def make_fs(**files):
    fs = VirtualFS()
    for p, t in files.items():
        fs.add(p.replace("__", "/"), t)
    return fs


class TestCppUnit:
    def test_deps_discovered(self):
        fs = make_fs(
            **{
                "main.cpp": '#include "a.h"\nint main() { return 0; }\n',
                "a.h": '#include "b.h"\nint fa();\n',
                "b.h": "int fb();\n",
            }
        )
        unit = index_cpp_unit(fs, "main", "main.cpp", CompileOptions())
        assert unit.deps == ["a.h", "b.h"]

    def test_all_representations_populated(self):
        fs = make_fs(**{"main.cpp": "int main() {\nreturn 3;\n}\n"})
        unit = index_cpp_unit(fs, "main", "main.cpp", CompileOptions())
        assert unit.t_src_pre is not None and unit.t_src_post is not None
        assert unit.t_sem is not None and unit.t_sem_inlined is not None
        assert unit.t_ir is not None
        assert unit.sig_lines_pre["main.cpp"] == {1, 2, 3}
        assert unit.source_lines_pre

    def test_source_tags_align_with_lines(self):
        fs = make_fs(**{"main.cpp": "int a;\nint b;\n"})
        unit = index_cpp_unit(fs, "main", "main.cpp", CompileOptions())
        assert len(unit.source_lines_pre) == len(unit.source_tags_pre)
        assert unit.source_tags_pre[0] == ("main.cpp", 1)

    def test_defines_applied(self):
        fs = make_fs(**{"main.cpp": "int a[COUNT];\n"})
        unit = index_cpp_unit(fs, "main", "main.cpp", CompileOptions(), {"COUNT": "9"})
        assert any("9" in row for row in unit.source_lines_post)

    def test_names_normalised_in_trees(self):
        fs = make_fs(**{"main.cpp": "int my_special_var = 1;\n"})
        unit = index_cpp_unit(fs, "main", "main.cpp", CompileOptions())
        labels = {n.label for n in unit.t_sem.preorder()}
        assert "my_special_var" not in labels

    @pytest.mark.parametrize(
        "template",
        [
            "int NAME(int x) { return x + 1; }\nint main() { return NAME(1); }\n",
            "int NAME = 0;\nint main() { NAME = 2; return NAME - 2; }\n",
        ],
        ids=["function", "global"],
    )
    def test_names_cannot_move_semantic_trees(self, template):
        # T_sem and T_sem+i erase programmer names, so no name changes
        # either tree, not even one spelt like ClangAST's "paren" wrapper
        def sem_hashes(name):
            fs = make_fs(**{"main.cpp": template.replace("NAME", name)})
            unit = index_cpp_unit(fs, "main", "main.cpp", CompileOptions())
            return structural_hash(unit.t_sem), structural_hash(unit.t_sem_inlined)

        assert sem_hashes("paren") == sem_hashes("parens")


class TestCodebaseIndexing:
    def test_unknown_language_rejected(self):
        spec = ModelSpec(app="t", model="m", lang="cobol", units={"main": "x"})
        with pytest.raises(ReproError):
            index_codebase(spec, make_fs(x="y"))

    def test_coverage_failure_degrades_gracefully(self):
        # main calls a function defined in another (unlinked) TU
        fs = make_fs(**{"main.cpp": "int external();\nint main() { return external(); }\n"})
        spec = ModelSpec(app="t", model="m", lang="cpp", units={"main": "main.cpp"})
        cb = index_codebase(spec, fs, run_coverage=True)
        assert cb.coverage is None
        assert "coverage run failed" in str(cb.run_value)
        assert cb.units["main"].t_sem is not None  # indexing still complete

    FAULTY = "int main() {\nint zz = 1;\nzz = zz % (zz - 1);\nreturn 0;\n}\n"

    def test_runtime_fault_fails_the_run_not_the_unit(self):
        spec = ModelSpec(app="t", model="m", lang="cpp", units={"main": "main.cpp"})
        with diag.capture() as sink:
            cb = index_codebase(spec, make_fs(**{"main.cpp": self.FAULTY}), run_coverage=True)
        assert cb.run_value == "coverage run failed: ZeroDivisionError: integer modulo by zero"
        assert cb.coverage is None
        unit = cb.units["main"]
        assert not unit.degraded
        trees = (unit.t_src_pre, unit.t_src_post, unit.t_sem, unit.t_sem_inlined, unit.t_ir)
        assert None not in trees
        assert sink.diagnostics == []

    def test_write_to_undeclared_name_fails_the_run_not_the_unit(self):
        src = "int main() {\nint total = 0;\ntotl += 1;\nreturn total;\n}\n"
        spec = ModelSpec(app="t", model="m", lang="cpp", units={"main": "main.cpp"})
        with diag.capture() as sink:
            cb = index_codebase(spec, make_fs(**{"main.cpp": src}), run_coverage=True)
        assert cb.run_value == "coverage run failed: undefined identifier 'totl'"
        assert cb.units["main"].t_sem is not None and not cb.units["main"].degraded
        assert sink.diagnostics == []

    def test_strict_runtime_fault_raises(self):
        spec = ModelSpec(app="t", model="m", lang="cpp", units={"main": "main.cpp"})
        fs = make_fs(**{"main.cpp": self.FAULTY})
        with pytest.raises(InterpreterError, match="^ZeroDivisionError: integer modulo by zero$"):
            index_codebase(spec, fs, run_coverage=True, strict=True)

    def test_coverage_run_is_an_exec_span_with_its_steps(self):
        from repro.exec import run_program
        from repro.lang.cpp.parser import parse_unit
        from repro.lang.cpp.sema import analyze

        src = "int main() {\nint s = 0;\nfor (int i = 0; i < 4; i++) { s += i; }\nreturn s;\n}\n"
        fs = make_fs(**{"main.cpp": src})
        tu = parse_unit(fs, "main.cpp")
        steps = run_program(tu, analyze(tu)).steps
        spec = ModelSpec(app="t", model="m", lang="cpp", units={"main": "main.cpp"})
        with obs.collect() as c:
            cb = index_codebase(spec, fs, run_coverage=True)
        assert cb.run_value == 6
        assert c.counters["exec.steps"] == steps
        assert [r.attrs.get("path") for r in c.spans if r.name == "exec"] == ["main.cpp"]

    def test_multiple_units(self):
        fs = make_fs(
            **{
                "a.cpp": "int fa() { return 1; }\n",
                "b.cpp": "int fb() { return 2; }\n",
            }
        )
        spec = ModelSpec(
            app="t", model="m", lang="cpp", units={"a": "a.cpp", "b": "b.cpp"}, entry=None
        )
        cb = index_codebase(spec, fs)
        assert set(cb.units) == {"a", "b"}


def _record_lexes(monkeypatch, lexer_fn):
    """Wrap ``lexer_fn`` wherever a ``repro`` module imported it; returns
    the ``(file, text)`` of every call, memo hits included."""
    seen = []

    def recording(text, file="<memory>", tolerant=False):
        seen.append((file, text))
        return lexer_fn(text, file, tolerant)

    for mod in list(sys.modules.values()):
        if not getattr(mod, "__name__", "").startswith("repro"):
            continue
        for name, value in list(vars(mod).items()):
            if value is lexer_fn:
                monkeypatch.setattr(mod, name, recording)
    return seen


class TestLexOnce:
    @pytest.mark.parametrize("app", ["babelstream", "minibude", "tealeaf", "cloverleaf"])
    def test_cpp_port_lexes_each_file_of_its_unit_once(self, monkeypatch, app):
        # every lex call counts: a directive's body is lexed with its file,
        # so no fragment of a line is lexed again
        from repro.corpus.registry import build_fs, get_spec
        from repro.lang.cpp.lexer import lex

        spec, fs = get_spec(app, "omp"), build_fs(app, "omp")
        seen = _record_lexes(monkeypatch, lex)
        unit = index_codebase(spec, fs).units["main"]
        files = [unit.path, *unit.deps]
        assert len(files) > 1
        assert Counter(seen) == Counter((f, fs.get(f).text) for f in files)

    def test_fortran_port_lexes_its_file_once(self, monkeypatch):
        from repro.corpus.registry import build_fs, get_spec
        from repro.lang.fortran.lexer import lex_fortran

        spec = get_spec("babelstream-fortran", "omp")
        fs = build_fs("babelstream-fortran", "omp")
        seen = _record_lexes(monkeypatch, lex_fortran)
        index_codebase(spec, fs)
        assert [f for f, _text in seen] == [spec.units["main"]]


class TestCliFigures:
    def test_figures_command_writes_svgs(self, tmp_path):
        from repro.workflow.cli import main

        rc = main(
            ["figures", "babelstream-fortran", "-o", str(tmp_path), "-b", "sequential"]
        )
        assert rc == 0
        names = {p.name for p in tmp_path.iterdir()}
        assert any(n.endswith("_dendrogram_Tsem.svg") for n in names)
        assert any(n.endswith("_heatmap.svg") for n in names)
        assert any(n.endswith("_cascade.svg") for n in names)
        assert any(n.endswith("_navchart.svg") for n in names)
