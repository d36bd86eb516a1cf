"""MiniC++ preprocessor tests."""

import pytest

from repro import diag
from repro.lang.cpp.lexer import TokenType
from repro.lang.cpp.preprocessor import preprocess
from repro.lang.source import VirtualFS
from repro.util.errors import ParseError


def pp(main_text, files=None, defines=None, recover=False):
    fs = VirtualFS()
    for path, text in (files or {}).items():
        fs.add(path, text)
    fs.add("main.cpp", main_text)
    return preprocess(fs, "main.cpp", defines, recover=recover)


def texts(result):
    return [t.text for t in result.tokens if t.type is not TokenType.DIRECTIVE]


class TestObjectMacros:
    def test_simple_expansion(self):
        r = pp("#define N 64\nint x = N;")
        assert "64" in texts(r) and "N" not in texts(r)

    def test_rescanning(self):
        r = pp("#define A B\n#define B 7\nint x = A;")
        assert "7" in texts(r)

    def test_self_reference_terminates(self):
        r = pp("#define X X\nint x = X;")
        assert "X" in texts(r)

    def test_undef(self):
        r = pp("#define N 1\n#undef N\nint x = N;")
        assert "N" in texts(r)

    def test_cmdline_defines(self):
        r = pp("int x = FROM_CLI;", defines={"FROM_CLI": "99"})
        assert "99" in texts(r)


class TestFunctionMacros:
    def test_paren_after_a_blank_is_object_like(self):
        r = pp("#define P (1)\n#define F(x) x\nint y = P + F(2);")
        assert texts(r) == ["int", "y", "=", "(", "1", ")", "+", "2", ";"]

    def test_args_substituted(self):
        r = pp("#define SQ(x) ((x) * (x))\nint y = SQ(3);")
        assert texts(r).count("3") == 2

    def test_multi_args(self):
        r = pp("#define ADD(a, b) (a + b)\nint y = ADD(1, 2);")
        t = texts(r)
        assert "1" in t and "2" in t and "+" in t

    def test_nested_call_args(self):
        r = pp("#define ID(x) x\nint y = ID(f(1, 2));")
        t = texts(r)
        assert "f" in t and "," in t

    def test_name_without_parens_not_expanded(self):
        r = pp("#define F(x) x\nint F;")
        assert "F" in texts(r)

    def test_wrong_arity_raises(self):
        with pytest.raises(ParseError):
            pp("#define TWO(a, b) a\nint x = TWO(1);")

    def test_object_macro_expanding_to_lambda_intro(self):
        # the KOKKOS_LAMBDA idiom
        r = pp("#define KOKKOS_LAMBDA [=]\nauto f = KOKKOS_LAMBDA(int i) { return i; };")
        t = texts(r)
        assert "[" in t and "=" in t and "]" in t


class TestConditionals:
    def test_ifdef_taken(self):
        r = pp("#define YES 1\n#ifdef YES\nint a;\n#endif\nint b;")
        assert "a" in texts(r)

    def test_ifdef_skipped(self):
        r = pp("#ifdef NO\nint a;\n#endif\nint b;")
        assert "a" not in texts(r) and "b" in texts(r)

    def test_ifndef(self):
        r = pp("#ifndef NO\nint a;\n#endif")
        assert "a" in texts(r)

    def test_else_branch(self):
        r = pp("#ifdef NO\nint a;\n#else\nint b;\n#endif")
        assert "a" not in texts(r) and "b" in texts(r)

    def test_elif(self):
        r = pp("#define V 2\n#if V == 1\nint a;\n#elif V == 2\nint b;\n#else\nint c;\n#endif")
        t = texts(r)
        assert "b" in t and "a" not in t and "c" not in t

    def test_nested_conditionals(self):
        r = pp("#define A 1\n#ifdef A\n#ifdef B\nint x;\n#endif\nint y;\n#endif")
        t = texts(r)
        assert "x" not in t and "y" in t

    def test_if_defined_expr(self):
        r = pp("#define A 1\n#if defined(A) && !defined(B)\nint yes;\n#endif")
        assert "yes" in texts(r)

    def test_if_arithmetic(self):
        r = pp("#if (2 + 3) * 2 == 10\nint yes;\n#endif")
        assert "yes" in texts(r)

    def test_unterminated_if_raises(self):
        with pytest.raises(ParseError):
            pp("#ifdef X\nint a;")

    def test_error_directive_in_dead_branch_ignored(self):
        r = pp("#ifdef NO\n#error boom\n#endif\nint ok;")
        assert "ok" in texts(r)

    def test_error_directive_raises(self):
        with pytest.raises(ParseError, match="boom"):
            pp("#error boom")

    def test_skipped_lines_recorded(self):
        r = pp("#ifdef NO\nint a;\nint b;\n#endif")
        assert len(r.skipped_lines) >= 2


class TestIfExpressions:
    """``#if`` evaluates one whole C expression or rejects the line."""

    @pytest.mark.parametrize("recover", [False, True], ids=["strict", "recover"])
    @pytest.mark.parametrize(
        "expr, message",
        [
            ("1 2", "unexpected '2'"),
            ("1 )", "unexpected '\\)'"),
            ("0 1", "unexpected '1'"),
            ("0 ? 0 : 1", "unexpected '\\?'"),
            ("1 ? 0 : 1", "unexpected '\\?'"),
            ("1 / 0", "by zero"),
            ("1 % (2 - 2)", "by zero"),
            ("1 << -1", "negative shift"),
            ("08", "invalid integer"),
        ],
        ids=["trailing", "stray-paren", "trailing-after-0", "cond-0", "cond-1",
             "div-zero", "mod-zero", "negative-shift", "bad-octal"],
    )
    def test_rejected_in_both_modes(self, expr, message, recover):
        with pytest.raises(ParseError, match=message):
            pp(f"#if {expr}\nint a;\n#endif\n", recover=recover)

    def test_error_points_at_the_leftover_token(self):
        with pytest.raises(ParseError) as info:
            pp("#if 1 2\n#endif\n")
        assert (info.value.line, info.value.col) == (1, 7)

    @pytest.mark.parametrize("expr", ["010 == 8", "0x10 == 16", "0 == 00", "10u == 10"])
    def test_integer_literals_read_as_c(self, expr):
        assert "a" in texts(pp(f"#if {expr}\nint a;\n#endif\n"))

    @pytest.mark.parametrize(
        "expr, kept",
        [("0 && 1 / 0", False), ("1 || 1 % 0", True), ("0 && (1 << -1) + 2", False),
         ("1 && 0 || 1 / 0 == 0", "raises")],
    )
    def test_operand_c_does_not_evaluate_may_divide_by_zero(self, expr, kept):
        src = f"#if {expr}\nint a;\n#endif\n"
        if kept == "raises":
            with pytest.raises(ParseError, match="by zero"):
                pp(src)
        else:
            assert ("a" in texts(pp(src))) is kept

    def test_elif_is_checked_only_when_evaluated(self):
        r = pp("#if 1\nint a;\n#elif 1 2\nint b;\n#endif\n")
        assert "a" in texts(r) and "b" not in texts(r)

    def test_skipped_if_is_not_evaluated(self):
        r = pp("#ifdef NO\n#if 1 2\n#endif\n#endif\nint c;")
        assert "c" in texts(r)


class TestIncludes:
    def test_quoted_include(self):
        r = pp('#include "h.h"\nint y;', files={"h.h": "int from_header;"})
        assert "from_header" in texts(r)
        assert r.dependencies == ["h.h"]

    def test_angled_include_resolves_system(self):
        r = pp("#include <sys.h>\n", files={"<system>/sys.h": "int sys_decl;"})
        assert "sys_decl" in texts(r)

    def test_include_once(self):
        r = pp(
            '#include "h.h"\n#include "h.h"\n',
            files={"h.h": "int once;"},
        )
        assert texts(r).count("once") == 1

    def test_main_file_included_again_is_a_no_op(self):
        r = pp('#include "main.cpp"\nint m;')
        assert texts(r).count("m") == 1
        assert r.dependencies == [] and list(r.file_tokens) == ["main.cpp"]

    def test_missing_include_raises(self):
        with pytest.raises(ParseError, match="include not found"):
            pp('#include "nope.h"\n')

    def test_nested_includes(self):
        r = pp(
            '#include "a.h"\n',
            files={"a.h": '#include "b.h"\nint a_decl;', "b.h": "int b_decl;"},
        )
        t = texts(r)
        assert "b_decl" in t and "a_decl" in t
        assert r.dependencies == ["a.h", "b.h"]

    def test_file_tokens_hold_every_file_read(self):
        r = pp(
            '#include "a.h"\n// main\nint m;',
            files={"a.h": '#include "b.h"\nint a_decl;', "b.h": "int b_decl;"},
        )
        assert list(r.file_tokens) == ["main.cpp", "a.h", "b.h"]
        main = r.file_tokens["main.cpp"]
        assert main[0].type is TokenType.DIRECTIVE and main[-1].type is TokenType.EOF
        assert any(t.type is TokenType.COMMENT for t in main)

    @pytest.mark.parametrize(
        "line",
        ['#include "h.h" // the header', '#include "h.h" /* c */', "#include <h.h> // c",
         '#include /* c */ "h.h"'],
        ids=["line-comment", "block-comment", "angled", "leading-comment"],
    )
    def test_comment_around_the_name(self, line):
        r = pp(f"{line}\nint y;", files={"h.h": "int from_header;", "<system>/h.h": "int from_header;"})
        assert "from_header" in texts(r)
        assert r.dependencies in (["h.h"], ["<system>/h.h"])

    def test_trailing_tokens_still_malformed(self):
        with pytest.raises(ParseError, match="malformed #include"):
            pp('#include "h.h" junk\n', files={"h.h": ""})

    def test_tokens_keep_original_file(self):
        r = pp('#include "h.h"\nint y;', files={"h.h": "int hx;"})
        hx = [t for t in r.tokens if t.text == "hx"][0]
        assert hx.file == "h.h"


class TestPragmaRetention:
    def test_omp_pragma_survives(self):
        r = pp("#pragma omp parallel for\nfor (;;) {}")
        directives = [t for t in r.tokens if t.type is TokenType.DIRECTIVE]
        assert len(directives) == 1
        assert "omp parallel for" in directives[0].text

    def test_acc_pragma_survives(self):
        r = pp("#pragma acc kernels\n{}")
        assert any(t.type is TokenType.DIRECTIVE for t in r.tokens)

    def test_other_pragma_dropped(self):
        r = pp("#pragma GCC optimize\nint x;")
        assert not any(t.type is TokenType.DIRECTIVE for t in r.tokens)

    def test_clause_macros_are_not_expanded(self):
        # the corpus's map clauses name macros (ARRAY_SIZE, GRID_CELLS, ...)
        # and T_sem keeps those names
        from repro.lang.cpp.parser import parse_tokens

        r = pp("#define NT 4\nint main() {\n#pragma omp parallel num_threads(NT)\n{}\nreturn 0;\n}")
        [pragma] = [t for t in r.tokens if t.type is TokenType.DIRECTIVE]
        assert [t.text for t in pragma.body] == ["omp", "parallel", "num_threads", "(", "NT", ")"]
        tu = parse_tokens(r.tokens, "main.cpp")
        stmt = tu.decls[0].body.stmts[0]
        assert [(c.name, c.arguments) for c in stmt.clauses] == [("num_threads", ["NT"])]

    def test_pragma_once_marks_included(self):
        r = pp(
            '#include "g.h"\n#include "g.h"\n',
            files={"g.h": "#pragma once\nint gg;"},
        )
        assert texts(r).count("gg") == 1


class TestRecover:
    @pytest.mark.parametrize(
        "src",
        ["int x = 1 @ 2;", "#define N 1 @ 2\nint x = N;", "#if 1 +@ 1\nint x;\n#endif"],
        ids=["file", "define-body", "if-expression"],
    )
    def test_lexical_damage_is_one_warning(self, src):
        with pytest.raises(ParseError, match="unexpected character"):
            pp(src)
        with diag.capture() as sink:
            r = pp(src, recover=True)
        assert sink.by_code() == {"lex/unexpected-char": 1}
        assert "x" in texts(r)

    def test_directive_errors_still_raise(self):
        with pytest.raises(ParseError, match="unterminated #if"):
            pp("#if 1\nint x;", recover=True)

    def test_directive_still_malformed_after_repair_raises(self):
        # '@' is skipped, and '1 1' is not an expression
        with diag.capture() as sink, pytest.raises(ParseError, match="unexpected '1'"):
            pp("#if 1 @ 1\nint x;\n#endif", recover=True)
        assert sink.by_code() == {"lex/unexpected-char": 1}

    def test_strict_define_body_raises_at_its_column(self):
        with pytest.raises(ParseError, match="unterminated literal") as info:
            pp("#define MSG 'x\nint y;")
        assert (info.value.line, info.value.col) == (1, 13)

    @pytest.mark.parametrize(
        "src",
        ["#ifdef NO\n#define MSG 'x\n#endif\nint y;", "#pragma message(\"x)\nint y;",
         "#if 0\n#error don't\n#endif\nint y;"],
        ids=["skipped-define", "dropped-pragma", "skipped-error"],
    )
    def test_strict_body_that_is_not_needed_only_warns(self, src):
        with diag.capture() as sink:
            r = pp(src)
        assert sink.by_code() == {"lex/directive-body": 1}
        assert "y" in texts(r)
