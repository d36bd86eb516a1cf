"""Tree edit distance unit tests (incl. the paper's Fig. 1 example)."""

from repro import obs
from repro.distance import Cost, UnitCost, ted, ted_normalized
from repro.distance.ted import cache_stats, clear_ted_cache
from repro.trees import from_sexpr
from repro.trees.stats import cached_label_histogram, histogram_lower_bound


class TestKnownDistances:
    def test_identical_zero(self):
        t = from_sexpr("(a (b c) d)")
        assert ted(t, t.copy()).distance == 0.0

    def test_single_relabel(self):
        assert ted(from_sexpr("(a b)"), from_sexpr("(a c)")).distance == 1

    def test_single_insert(self):
        assert ted(from_sexpr("(a b)"), from_sexpr("(a b c)")).distance == 1

    def test_single_delete(self):
        assert ted(from_sexpr("(a b c)"), from_sexpr("(a b)")).distance == 1

    def test_empty_vs_tree(self):
        assert ted(from_sexpr("x"), from_sexpr("(a b c)")).distance == 3

    def test_fig1_example(self):
        """Fig. 1: 'Two ASTs with a TED distance of five: four outlined nodes
        are inserted or deleted with one relabelled node on the top.'"""
        # one relabelled node on top, four nodes deleted
        t1 = from_sexpr("(call (args a b) (body c))")  # 6 nodes
        t2 = from_sexpr("(ret c)")  # 2 nodes
        # relabel call->ret (1) + delete args, a, b, body (4) = 5
        assert ted(t1, t2).distance == 5

    def test_subtree_move_costs_delete_plus_insert(self):
        t1 = from_sexpr("(r (a x) b)")
        t2 = from_sexpr("(r a (b x))")
        # moving x: delete + insert = 2
        assert ted(t1, t2).distance == 2


class TestTedResult:
    def test_dmax_is_larger_tree_in_both_orders(self):
        """Eq. 7 on the Fig. 1 trees: dmax = max(|T1|, |T2|) = 6 whichever
        tree comes first (the target-size reading would give 5/2 one way)."""
        big = from_sexpr("(call (args a b) (body c))")  # 6 nodes
        small = from_sexpr("(ret c)")  # 2 nodes
        for r in (ted(big, small), ted(small, big)):
            assert (r.distance, r.size1 + r.size2) == (5, 8)
            assert r.dmax == 6
            assert r.normalized == 5 / 6

    def test_normalized_in_unit_range_for_disjoint(self):
        r = ted(from_sexpr("(a b c)"), from_sexpr("(x y z)"))
        assert 0 < r.normalized <= 1.0

    def test_identical_shortcut_flag(self):
        t = from_sexpr("(a b)")
        assert ted(t, t.copy()).shortcut

    def test_ted_normalized_zero_for_identical(self):
        t = from_sexpr("(a (b c))")
        assert ted_normalized(t, t.copy()) == 0.0


class TestCache:
    def test_cache_hit_on_repeat(self):
        clear_ted_cache()
        a = from_sexpr("(a (b c) (d e))")
        b = from_sexpr("(a (b x) (d e f))")
        first = ted(a, b)
        second = ted(a, b)
        assert not first.cached and not first.shortcut
        assert second.cached  # served from memo
        assert not second.shortcut  # memo hits are NOT hash shortcuts
        assert second.distance == first.distance

    def test_cache_symmetric(self):
        clear_ted_cache()
        a = from_sexpr("(p q r)")
        b = from_sexpr("(p (q r) s)")
        d1 = ted(a, b).distance
        rev = ted(b, a)
        assert rev.cached
        assert rev.distance == d1

    def test_identical_trees_are_shortcut_not_cached(self):
        clear_ted_cache()
        t = from_sexpr("(a (b c))")
        r = ted(t, t.copy())
        assert r.shortcut and not r.cached

    def test_cache_never_exceeds_limit(self, monkeypatch):
        import sys

        # the package re-exports the ted() function under the same name, so
        # reach the module through sys.modules
        ted_mod = sys.modules["repro.distance.ted"]

        clear_ted_cache()
        monkeypatch.setattr(ted_mod, "_CACHE_LIMIT", 6)
        trees = [from_sexpr(f"(r{i} (x{i} y{i}) z{i})") for i in range(8)]
        base = from_sexpr("(q (w e) r)")
        with obs.collect() as c:
            for t in trees:
                ted(base, t)
                assert len(ted_mod._CACHE) <= 6
        assert c.counters["ted.cache.evicted"] > 0
        assert cache_stats() == {"size": 6, "limit": 6}
        # recent pairs survive eviction and still hit
        assert ted(base, trees[-1]).cached


class TestCustomCosts:
    def test_weighted_insert(self):
        # making inserts free: pure-insertion pair costs 0
        cost = Cost(delete=lambda n: 1.0, insert=lambda n: 0.0, relabel=lambda a, b: float(a.label != b.label))
        r = ted(from_sexpr("(a b)"), from_sexpr("(a b c)"), cost)
        assert r.distance == 0.0

    def test_weighted_matches_unit_when_unit(self):
        cost = Cost(delete=lambda n: 1.0, insert=lambda n: 1.0, relabel=lambda a, b: float(a.label != b.label))
        a = from_sexpr("(a (b c) d)")
        b = from_sexpr("(a (x c) e f)")
        assert ted(a, b, cost).distance == ted(a, b).distance

    def test_unitcost_is_unit(self):
        assert UnitCost().is_unit()


class TestLowerBound:
    def test_bound_below_distance(self):
        a = from_sexpr("(a (b c) (d e))")
        b = from_sexpr("(x (y z))")
        lb = histogram_lower_bound(cached_label_histogram(a), cached_label_histogram(b))
        assert lb <= ted(a, b).distance
