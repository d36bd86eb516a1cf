"""T_src construction: the bracket-structured token tree."""

from repro.compiler import CompileOptions
from repro.lang.cpp.cst import src_tree
from repro.lang.cpp.lexer import lex
from repro.lang.source import VirtualFS
from repro.workflow.indexer import index_cpp_unit


def fs_with(text, **files):
    fs = VirtualFS()
    for p, t in files.items():
        fs.add(p.replace("__", "/"), t)
    fs.add("main.cpp", text)
    return fs


def t_src(text):
    return src_tree(lex(text, "m"), "m")


class TestBuildCst:
    def test_bracket_grouping(self):
        t = t_src("int f(int a) { return a; }")
        groups = [n.label for n in t.preorder() if n.kind == "group"]
        assert "paren-group" in groups and "brace-group" in groups

    def test_nesting(self):
        t = t_src("f(g(x));")
        outer = t.find_labels("paren-group")[0]
        assert outer.find_labels("paren-group")  # inner group nested

    def test_literal_classification(self):
        t = t_src('x = 1 + 2.5 + "s";')
        labels = [n.label for n in t.preorder()]
        assert "int-lit" in labels and "float-lit" in labels and "str-lit" in labels

    def test_spans_recorded(self):
        t = t_src("int a;\nint b;")
        b = [n for n in t.preorder() if n.label == "b"][0]
        assert b.span.line_start == 2

    def test_group_span_runs_to_closing_bracket(self):
        t = t_src("int f() {\n  return 1;\n}")
        brace = t.find_labels("brace-group")[0]
        assert (brace.span.line_start, brace.span.line_end) == (1, 3)


class TestNormalizedSrcTree:
    def test_trivia_and_punct_dropped(self):
        t = t_src("int x = 1; // note")
        assert [(n.label, n.kind) for n in t.preorder()] == [
            ("file", "cst"), ("int", "kw"), ("x", "ident"), ("int-lit", "lit"),
        ]

    def test_keywords_and_idents_kept(self):
        t = t_src("for (int i = 0; i < n; i++) {}")
        labels = [n.label for n in t.preorder()]
        assert "for" in labels and "i" in labels

    def test_groups_preserve_nesting(self):
        t = t_src("{ { x } }")
        outer = t.find_labels("brace-group")[0]
        assert outer.find_labels("brace-group")

    def test_directive_words_survive(self):
        # "OpenMP pragmas are identified and retained even after ...
        # normalisation steps" (§III-C)
        t = t_src("#pragma omp parallel for reduction(+:s)\nint x;")
        directive = t.find_labels("directive:pragma")[0]
        assert [n.label for n in directive.children] == [
            "omp", "parallel", "for", "reduction", "s",
        ]


class TestPrePostVariants:
    """The indexer's two T_src of a C++ unit: ``pre`` over the raw file,
    ``post`` over the preprocessed token stream."""

    @staticmethod
    def unit(fs):
        return index_cpp_unit(fs, "main", "main.cpp", CompileOptions())

    def test_pre_shows_directives(self):
        fs = fs_with('#include "h.h"\nint x;', **{"h.h": "int hidden;"})
        labels = [n.label for n in self.unit(fs).t_src_pre.preorder()]
        assert any(lab.startswith("directive:include") for lab in labels)
        assert "hidden" not in labels

    def test_post_shows_header_content(self):
        fs = fs_with('#include "h.h"\nint x;', **{"h.h": "int hidden;"})
        labels = [n.label for n in self.unit(fs).t_src_post.preorder()]
        assert "hidden" in labels

    def test_post_expands_macros(self):
        fs = fs_with("#define N 64\nint a[N];")
        post = self.unit(fs).t_src_post
        lits = [n.attrs.get("text") for n in post.preorder() if n.kind == "lit"]
        assert "64" in lits


class TestDirectiveBodies:
    """A directive's children are the body tokens the lexer split off."""

    def test_strict_body_that_does_not_lex_keeps_raw_words(self):
        from repro import diag

        fs = fs_with("#if 0\n#error don't\n#endif\nint main() { return 0; }\n")
        with diag.capture() as sink:
            unit = index_cpp_unit(fs, "main", "main.cpp", CompileOptions(), recover=False)
        assert sink.by_code() == {"lex/directive-body": 1}
        [error] = unit.t_src_pre.find_labels("directive:error")
        assert [(n.label, n.kind) for n in error.children] == [("don't", "tok")]

    def test_recover_repairs_the_body(self):
        from repro import diag

        fs = fs_with("#pragma omp parallel for @\nint main() { return 0; }\n")
        with diag.capture() as sink:
            unit = index_cpp_unit(fs, "main", "main.cpp", CompileOptions(), recover=True)
        assert sink.by_code() == {"lex/unexpected-char": 1}
        for tree in (unit.t_src_pre, unit.t_src_post):
            [pragma] = tree.find_labels("directive:pragma")
            assert [n.label for n in pragma.children] == ["omp", "parallel", "for"]

    def test_comments_in_a_directive_make_no_node(self):
        t = t_src("#include <a/b.h> // why\n#endif /* X */\n")
        [inc] = t.find_labels("directive:include")
        assert [n.label for n in inc.children] == ["a", "b", "h"]
        assert t.find_labels("directive:endif")[0].children == ()
