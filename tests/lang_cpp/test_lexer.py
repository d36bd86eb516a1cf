"""MiniC++ lexer tests."""

import pytest

from repro.lang.cpp.lexer import TokenType, lex, significant
from repro.util.errors import ParseError


def kinds(text):
    return [(t.type, t.text) for t in significant(lex(text))]


class TestBasicTokens:
    def test_keywords_vs_idents(self):
        toks = kinds("int foo")
        assert toks == [(TokenType.KEYWORD, "int"), (TokenType.IDENT, "foo")]

    def test_int_literals(self):
        assert kinds("42 0x1F 7u")[0] == (TokenType.INT, "42")
        assert kinds("0x1F")[0][0] == TokenType.INT

    def test_float_literals(self):
        for text in ("1.5", "0.4", "1e9", "2.5e-3", "1.0f"):
            assert kinds(text)[0][0] == TokenType.FLOAT, text

    def test_int_with_suffix_stays_int(self):
        assert kinds("42u")[0][0] == TokenType.INT

    def test_string_and_char(self):
        toks = kinds('"hello" \'c\'')
        assert toks[0][0] == TokenType.STRING
        assert toks[1][0] == TokenType.CHAR

    def test_string_with_escape(self):
        toks = kinds(r'"a\"b"')
        assert toks[0][1] == r'"a\"b"'

    def test_unterminated_string_raises(self):
        with pytest.raises(ParseError):
            lex('"oops')


class TestOperators:
    def test_longest_match(self):
        assert [t for _, t in kinds("a<<<b>>>c")] == ["a", "<<<", "b", ">>>", "c"]

    def test_shift_vs_chevron(self):
        assert [t for _, t in kinds("a << b")] == ["a", "<<", "b"]

    def test_scope_and_arrow(self):
        assert [t for _, t in kinds("a::b->c")] == ["a", "::", "b", "->", "c"]

    def test_compound_assignment(self):
        assert [t for _, t in kinds("x += y")] == ["x", "+=", "y"]


class TestTrivia:
    def test_comments_are_trivia(self):
        toks = lex("a // line\n/* block */ b")
        sig = significant(toks)
        assert [t.text for t in sig] == ["a", "b"]
        assert any(t.type == TokenType.COMMENT for t in toks)

    def test_multiline_block_comment_tracks_lines(self):
        toks = lex("/* a\nb\nc */ x")
        x = significant(toks)[0]
        assert x.line == 3

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(ParseError):
            lex("/* never ends")


class TestDirectives:
    def test_directive_token(self):
        toks = lex("#include <omp.h>\nint x;")
        assert toks[0].type == TokenType.DIRECTIVE
        assert "#include" in toks[0].text

    def test_hash_mid_line_not_directive(self):
        # only line-leading '#' starts a directive
        toks = significant(lex("a # b"))
        assert [t.text for t in toks] == ["a", "#", "b"]

    def test_continued_directive(self):
        toks = lex("#define M(a) \\\n  (a + 1)\nint y;")
        assert toks[0].type == TokenType.DIRECTIVE
        assert "(a + 1)" in toks[0].text

    def test_pragma_is_directive(self):
        toks = lex("#pragma omp parallel for\n")
        assert toks[0].type == TokenType.DIRECTIVE


class TestDirectiveSplit:
    """The lexer splits a directive once: name, raw rest, body tokens."""

    def test_name_rest_and_body_at_their_columns(self):
        d = lex("  #  pragma omp parallel for // why\n")[1]
        assert (d.name, d.rest) == ("pragma", "omp parallel for")
        assert [(t.text, t.line, t.col) for t in d.body] == [
            ("omp", 1, 13), ("parallel", 1, 17), ("for", 1, 26),
        ]
        assert d.text == "#  pragma omp parallel for // why"

    def test_null_directive_and_empty_body(self):
        null, _, endif = lex("#\n#endif // X")[:3]
        assert (null.name, null.rest, null.body) == ("", "", ())
        assert (endif.name, endif.rest, endif.body) == ("endif", "", ())

    def test_continued_directive_is_one_logical_line(self):
        d = lex("#define M(a) \\\n  (a + 1)\nint y;")[0]
        assert d.name == "define"
        assert [t.text for t in d.body] == ["M", "(", "a", ")", "(", "a", "+", "1", ")"]
        assert {t.line for t in d.body} == {1}
        assert d.body[4].col == 17  # column in the joined line

    def test_hash_in_a_body_is_punctuation(self):
        d = lex("#define S(x) #x\n")[0]
        assert [(t.type, t.text) for t in d.body][-2:] == [
            (TokenType.PUNCT, "#"), (TokenType.IDENT, "x"),
        ]

    def test_tolerant_body_is_repaired_where_it_stands(self):
        from repro import diag

        with diag.capture() as sink:
            d = lex("#pragma omp for @ nowait\n", tolerant=True)[0]
        assert [(x.code, x.line, x.col) for x in sink.diagnostics] == [
            ("lex/unexpected-char", 1, 17)
        ]
        assert [t.text for t in d.body] == ["omp", "for", "nowait"]

    def test_strict_body_that_does_not_lex_keeps_its_error(self):
        from repro import diag

        with diag.capture() as sink:
            d = lex("#error don't\n")[0]
        assert d.body is None and d.rest == "don't"
        assert [(x.code, x.line, x.col) for x in sink.diagnostics] == [
            ("lex/directive-body", 1, 11)
        ]
        with pytest.raises(ParseError, match="unterminated literal") as info:
            d.tokens()
        assert (info.value.line, info.value.col) == (1, 11)


class TestLocations:
    def test_line_and_col(self):
        toks = significant(lex("int a;\n  double b;"))
        b = [t for t in toks if t.text == "b"][0]
        assert b.line == 2
        assert b.col == 10

    def test_cuda_attr_is_keyword(self):
        assert kinds("__global__")[0][0] == TokenType.KEYWORD


class TestMemo:
    """Repeated clean (file, text) lexes are served from a bounded memo."""

    @pytest.fixture(autouse=True)
    def _fresh_memo(self):
        from repro.lang.cpp.lexer import clear_lex_memo

        clear_lex_memo()
        yield
        clear_lex_memo()

    def test_hit_returns_a_fresh_list_of_the_same_tokens(self):
        first = lex("int x = 1;\n", "m.cpp")
        expected = list(first)
        first.append("junk")
        first[0] = None
        again = lex("int x = 1;\n", "m.cpp")
        assert again == expected
        assert all(a is b for a, b in zip(again, expected))  # the same frozen tokens

    def test_file_is_part_of_the_key(self):
        lex("int x;", "a.cpp")
        assert {t.file for t in lex("int x;", "b.cpp")} == {"b.cpp"}

    def test_strict_and_tolerant_share_clean_lexes(self):
        from repro import obs

        lex("int y;", "m.cpp", tolerant=True)
        with obs.collect() as c:
            toks = lex("int y;", "m.cpp")
        assert c.counters["lex.cpp.memo_hits"] == 1
        assert "lex.cpp.calls" not in c.counters
        assert toks[0].text == "int"

    def test_repaired_lex_reemits_its_diagnostic_every_call(self):
        from repro import diag

        for _ in range(3):
            with diag.capture() as sink:
                lex("int a; /* open", "m.cpp", tolerant=True)
            assert [d.code for d in sink.diagnostics] == ["lex/unterminated-comment"]

    def test_body_is_memoised_with_its_file(self):
        first = lex("#define N 4\nint a[N];\n", "m.cpp")[0]
        again = lex("#define N 4\nint a[N];\n", "m.cpp")[0]
        assert again is first and again.body is first.body

    def test_strict_body_fallback_is_not_memoised(self):
        from repro import diag

        for _ in range(2):
            with diag.capture() as sink:
                d = lex("#error don't\n", "m.cpp")[0]
            assert sink.by_code() == {"lex/directive-body": 1}
        with diag.capture():
            assert [t.text for t in lex("#error don't\n", "m.cpp", tolerant=True)[0].body] == [
                "don", "'t"
            ]
        assert d.body is None

    def test_strict_lex_still_raises_after_a_tolerant_one(self):
        from repro import diag

        with diag.capture():
            lex('char* s = "open;\n', "m.cpp", tolerant=True)
        with pytest.raises(ParseError, match="unterminated literal"):
            lex('char* s = "open;\n', "m.cpp")

    def test_least_recently_used_entries_are_evicted(self, monkeypatch):
        from repro.lang.cpp import lexer
        from repro import obs

        monkeypatch.setattr(lexer, "MEMO_CHARS", 12)
        lex("int a;", "m.cpp")  # 6 characters
        lex("int b;", "m.cpp")  # 12: at the bound
        lex("int a;", "m.cpp")  # a hit: "int b;" is now the oldest
        lex("int c;", "m.cpp")  # 18 > 12: evicts "int b;"
        with obs.collect() as c:
            lex("int a;", "m.cpp")
            lex("int c;", "m.cpp")
            lex("int b;", "m.cpp")
        assert c.counters["lex.cpp.memo_hits"] == 2
        assert c.counters["lex.cpp.calls"] == 1
        assert lexer._memo_chars <= 12

    def test_threads_keep_the_memo_consistent(self, monkeypatch):
        import sys
        import threading

        from repro.lang.cpp import lexer

        monkeypatch.setattr(lexer, "MEMO_CHARS", 200)  # evicts constantly
        texts = [f"int v{i} = {i};\n" for i in range(40)]
        expected = {t: [(k.type, k.text) for k in lex(t, "m.cpp")] for t in texts}
        lexer.clear_lex_memo()
        errors: list = []

        def worker(stride: int) -> None:
            try:
                for j in range(2000):
                    text = texts[(j * stride) % len(texts)]
                    if [(k.type, k.text) for k in lex(text, "m.cpp")] != expected[text]:
                        errors.append(text)
            except Exception as e:  # noqa: BLE001 — reported by the assert below
                errors.append(e)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(s,)) for s in (1, 3, 7, 11, 13, 17)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        # a lost update to the character count would break this
        assert lexer._memo_chars == sum(len(text) for _file, text in lexer._memo)
        assert lexer._memo_chars <= 200
