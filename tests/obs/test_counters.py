"""Counter/gauge accumulation and the instrumented hot paths."""

from repro import obs
from repro.distance.bounds import BoundOracle
from repro.distance.ted import clear_ted_cache, ted
from repro.trees import from_sexpr


class TestAccumulation:
    def test_add_accumulates(self):
        with obs.collect() as c:
            obs.add("n")
            obs.add("n", 2)
            obs.add("other", 0.5)
        assert c.counters == {"n": 3.0, "other": 0.5}

    def test_gauge_overwrites(self):
        with obs.collect() as c:
            obs.gauge("size", 1)
            obs.gauge("size", 9)
        assert c.gauges == {"size": 9}

    def test_get_reads_active_counter(self):
        with obs.collect():
            obs.add("x", 4)
            assert obs.get("x") == 4.0
            assert obs.get("missing") == 0.0
        assert obs.get("x") == 0.0  # no collector -> 0

    def test_get_is_counter_only(self):
        # gauges and histograms are separate namespaces: get() must treat a
        # gauge name exactly like an unknown counter, not read through
        with obs.collect():
            obs.gauge("size", 9)
            obs.observe("lat", 0.5)
            assert obs.get("size") == 0.0
            assert obs.get("lat") == 0.0
            assert obs.get_gauge("size") == 9.0
            assert obs.get_gauge("missing", default=-1.0) == -1.0
            assert obs.get_histogram("lat").count == 1
            assert obs.get_histogram("missing") is None
        assert obs.get_gauge("size") == 0.0  # no collector -> default
        assert obs.get_histogram("lat") is None

    def test_observe_records_distribution(self):
        with obs.collect() as c:
            obs.observe("lat", 0.002)
            obs.observe("lat", 0.004)
        assert c.hists["lat"].count == 2
        assert c.hists["lat"].sum == 0.006

    def test_noop_without_collector(self):
        obs.add("ignored")
        obs.gauge("ignored", 1)  # must not raise or leak anywhere
        obs.observe("ignored", 0.1)


class TestTedCounters:
    def test_hit_miss_shortcut_distinct(self):
        clear_ted_cache()
        a = from_sexpr("(a (b c) (d e))")
        b = from_sexpr("(a (b x) (d e f))")
        with obs.collect() as c:
            ted(a, b)  # miss (DP runs)
            ted(a, b)  # memo hit
            ted(a, a.copy())  # identical-hash shortcut
        assert c.counters["ted.cache.miss"] == 1
        assert c.counters["ted.cache.hit"] == 1
        assert c.counters["ted.shortcut"] == 1
        assert c.gauges["ted.cache.size"] == 2

    def test_lower_bound_emits_no_filter_counters(self):
        # the old ted.filter.* taxonomy is retired: pruning effectiveness is
        # now tracked per cascade stage as ted.pruned.<stage>
        def lb(t1, t2):  # the oracle's histogram stage
            return dict(BoundOracle().lower_stages(t1, t2)).get("histogram", 0)

        with obs.collect() as c:
            same = from_sexpr("(a b)")
            assert lb(same, same.copy()) == 0
            assert lb(from_sexpr("(a b)"), from_sexpr("(x y z)")) > 0
        assert not any(k.startswith("ted.filter.") for k in c.counters)

    def test_hash_prune_counter(self):
        clear_ted_cache()
        a = from_sexpr("(a (b c) (d e))")
        with obs.collect() as c:
            ted(a, a.copy())
        assert c.counters["ted.pruned.hash"] == 1
        assert c.counters["ted.shortcut"] == 1

    def test_zs_work_counters(self):
        # L(T) sums the subtree sizes of the keyroots (the root and the nodes
        # with a left sibling), {d, a} x {f, d, a}: (2 + 5) * (1 + 3 + 6) =
        # 70. R(T) does the same over the root and the nodes with a right
        # sibling, {b, a} x {b, e, a}: (2 + 5) * (2 + 1 + 6) = 63, so the
        # first pair takes the mirrored path. Its mirror image swaps the
        # two products and reaches the same 63 cells through the left path.
        for t1, t2, left, right in (
            ("(a (b c) (d e))", "(a (b x) (d e f))", 70, 63),
            ("(a (d e) (b c))", "(a (d f e) (b x))", 63, 70),
        ):
            clear_ted_cache()
            with obs.collect() as c:
                ted(from_sexpr(t1), from_sexpr(t2))
            assert c.counters["ted.zs.calls"] == 1
            assert "zs.calls" not in c.counters
            assert c.counters["zs.keyroot_pairs"] == 2 * 3
            assert c.counters["zs.cells_left"] == left
            assert c.counters["zs.cells_right"] == right
            assert c.counters["zs.dp_cells"] == 63
            assert c.counters["zs.swept_cells"] == 63  # no twin keyroots

        # Twin keyroots are swept once. T1's keyroots (left path) are its
        # second and third (b c) and the root: L = 2 + 2 + 7 = 11 = R. T2's
        # are its second (b c), both d leaves and the root: L = 2 + 1 + 1 + 7
        # = 11 < R = 2 + 2 + 1 + 7 = 12, so the pair takes the left path. The
        # third (b c) of T1 and the second d of T2 repeat a keyroot already
        # swept: (2 + 7) * (2 + 1 + 7) = 90 of the 121 cells are swept.
        clear_ted_cache()
        with obs.collect() as c:
            r = ted(from_sexpr("(a (b c) (b c) (b c))"), from_sexpr("(a (b c) (b c) d d)"))
        assert r.distance == 3
        assert c.counters["zs.keyroot_pairs"] == 3 * 4
        assert c.counters["zs.cells_left"] == 121
        assert c.counters["zs.cells_right"] == 132
        assert c.counters["zs.dp_cells"] == 121
        assert c.counters["zs.swept_cells"] == 90


class TestLexCounters:
    def test_cpp_tokens_counted(self):
        from repro.lang.cpp.lexer import lex

        with obs.collect() as c:
            toks = lex("int x = 1;\n", "t.cpp")
        assert c.counters["lex.cpp.calls"] == 1
        assert c.counters["lex.cpp.tokens"] == len(toks)

    def test_fortran_tokens_counted(self):
        from repro.lang.fortran.lexer import lex_fortran

        with obs.collect() as c:
            toks = lex_fortran("x = 1\n", "t.f90")
        assert c.counters["lex.fortran.calls"] == 1
        assert c.counters["lex.fortran.tokens"] == len(toks)
