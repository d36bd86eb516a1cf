"""Cross-pair batched Zhang–Shasha: exactness against an independent kernel.

``zhang_shasha_cross`` packs keyroot row-sweeps from *different* tree pairs
into one wide NumPy scan. Its only contract is the exact unit-cost TED on
every pair, in input order. The reference is the pure-Python generic-cost
kernel with unit costs: ``zhang_shasha_distance`` shares the cross kernel's
column layout, so it cannot check it. These tests drive that on random
batches, degenerate shapes, and under forced memory-group splits, then
cover the ``ted_many`` routing layer built on top of it.
"""

import importlib

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.distance import zs_cross
from repro.distance.ted import Cost, clear_ted_cache, ted, ted_many
from repro.distance.zhang_shasha import zhang_shasha_distance, zhang_shasha_generic
from repro.distance.zs_cross import zhang_shasha_cross
from repro.trees import Node, from_sexpr

# the package __init__ re-exports the ted() function under the module's
# name, so reach the module itself for monkeypatching its routing knob
ted_mod = importlib.import_module("repro.distance.ted")

_LABELS = ("a", "b", "c")


@st.composite
def rand_trees(draw, max_nodes=25):
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    nodes = [Node(draw(st.sampled_from(_LABELS)))]
    for _ in range(n - 1):
        parent = draw(st.integers(min_value=0, max_value=len(nodes) - 1))
        child = Node(draw(st.sampled_from(_LABELS)))
        nodes[parent].add(child)
        nodes.append(child)
    return nodes[0]


def _chain(n, label="a"):
    root = node = Node(label)
    for _ in range(n - 1):
        child = Node(label)
        node.add(child)
        node = child
    return root


def _star(n, label="a"):
    root = Node(label)
    for _ in range(n - 1):
        root.add(Node(label))
    return root


def _unit_relabel(a, b):
    return 0.0 if a.label == b.label else 1.0


def _oracle(pairs):
    return [
        int(zhang_shasha_generic(a, b, lambda n: 1.0, lambda n: 1.0, _unit_relabel))
        for a, b in pairs
    ]


# ---------------------------------------------------------------------------
# The cross kernel itself
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(rand_trees(), rand_trees()), min_size=1, max_size=6))
def test_cross_matches_per_pair_kernel(pairs):
    assert zhang_shasha_cross(pairs) == _oracle(pairs)


def test_cross_degenerate_shapes():
    pairs = [
        (Node("a"), Node("a")),
        (Node("a"), Node("b")),
        (_chain(7), _chain(4, "b")),
        (_star(6), _star(9)),
        (_chain(8), _star(8)),
        (from_sexpr("(a (b c) (d e))"), from_sexpr("(a (b c) (d e))")),
    ]
    assert zhang_shasha_cross(pairs) == _oracle(pairs)


def test_cross_single_pair_and_empty_batch():
    assert zhang_shasha_cross([]) == []
    pair = (from_sexpr("(a (b c))"), from_sexpr("(a (x c) d)"))
    assert zhang_shasha_cross([pair]) == _oracle([pair])


def test_cross_duplicate_pairs_in_one_batch():
    a, b = from_sexpr("(a (b c) d)"), from_sexpr("(a (b x))")
    pairs = [(a, b), (a, b), (b, a)]
    assert zhang_shasha_cross(pairs) == _oracle(pairs)


def test_cross_mixed_sizes_one_batch():
    pairs = [
        (Node("a"), _chain(12)),
        (_star(20), from_sexpr("(a b)")),
        (from_sexpr("(a (b (c d)) e)"), _star(15, "b")),
    ]
    assert zhang_shasha_cross(pairs) == _oracle(pairs)


@settings(max_examples=15, deadline=None)
@given(st.lists(st.tuples(rand_trees(), rand_trees()), min_size=2, max_size=5))
def test_cross_exact_under_tiny_memory_groups(pairs):
    # force every pair into its own memory group: the greedy packer must
    # still return all results, in order, unchanged
    prev = zs_cross._MAX_FD_CELLS
    zs_cross._MAX_FD_CELLS = 1
    try:
        assert zhang_shasha_cross(pairs) == _oracle(pairs)
    finally:
        zs_cross._MAX_FD_CELLS = prev


def test_cross_emits_counters():
    from repro import obs

    pairs = [(from_sexpr("(a (b c))"), from_sexpr("(a (x c) d)"))] * 3
    with obs.collect() as c:
        zhang_shasha_cross(pairs)
    assert c.counters["zs.cross_calls"] == 1
    assert c.counters["zs.cross_pairs"] == 3


def test_cross_reports_the_per_pair_kernels_work():
    from repro import obs

    # the first pair takes the mirrored path (63 of 70 cells), its mirror
    # image the left path: the packed kernel picks per pair as well
    pairs = [
        (from_sexpr("(a (b c) (d e))"), from_sexpr("(a (b x) (d e f))")),
        (from_sexpr("(a (d e) (b c))"), from_sexpr("(a (d f e) (b x))")),
    ]
    keys = ("zs.dp_cells", "zs.cells_left", "zs.cells_right", "zs.keyroot_pairs")
    with obs.collect() as packed:
        got = zhang_shasha_cross(pairs)
    with obs.collect() as single:
        want = [zhang_shasha_distance(a, b) for a, b in pairs]
    assert got == want
    assert {k: packed.counters[k] for k in keys} == {k: single.counters[k] for k in keys}
    assert packed.counters["zs.dp_cells"] == 63 + 63


# ---------------------------------------------------------------------------
# ted_many routing on top of it
# ---------------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(rand_trees(), rand_trees()), min_size=1, max_size=6))
def test_ted_many_matches_single_ted(pairs):
    clear_ted_cache()
    batch = ted_many(pairs)
    clear_ted_cache()
    single = [ted(a, b) for a, b in pairs]
    assert [r.distance for r in batch] == [r.distance for r in single]
    assert [(r.size1, r.size2) for r in batch] == [(r.size1, r.size2) for r in single]


def test_ted_many_warms_the_memo():
    clear_ted_cache()
    a, b = from_sexpr("(a (b c) d)"), from_sexpr("(a (b x) (d e))")
    ted_many([(a, b)])
    assert ted(a, b).cached


def test_ted_many_folds_duplicates_to_one_solve():
    from repro import obs

    clear_ted_cache()
    a, b = from_sexpr("(a (b c) d)"), from_sexpr("(a (b x))")
    with obs.collect() as c:
        results = ted_many([(a, b), (a, b), (b, a)])
    # one DP for the unique unordered key; the fan-out rides the memo
    assert c.counters["ted.cache.miss"] == 1
    assert len({r.distance for r in results}) == 1
    assert results[0].distance == zhang_shasha_distance(a, b)


def test_ted_many_identical_pairs_shortcut():
    clear_ted_cache()
    t = from_sexpr("(a (b c) (d e))")
    (r,) = ted_many([(t, t.copy())])
    assert r.distance == 0.0 and r.shortcut


def test_ted_many_routes_small_survivors_through_cross(monkeypatch):
    from repro import obs

    # force the small-pair route: everything below the (huge) threshold
    monkeypatch.setattr(ted_mod, "_CROSS_MAX_CELLS", 1 << 30)
    clear_ted_cache()
    pairs = [
        (from_sexpr("(a (b c) d)"), from_sexpr("(a (b x) e)")),
        (from_sexpr("(a (b (c d)))"), from_sexpr("(x (b d))")),
    ]
    with obs.collect() as c:
        results = ted_many(pairs)
    assert c.counters["zs.cross_calls"] == 1
    assert c.counters["zs.cross_pairs"] == 2
    assert [r.distance for r in results] == [float(d) for d in _oracle(pairs)]


def test_ted_many_large_pairs_avoid_cross(monkeypatch):
    from repro import obs

    # force the large-pair route: nothing fits under the threshold
    monkeypatch.setattr(ted_mod, "_CROSS_MAX_CELLS", 0)
    clear_ted_cache()
    pairs = [
        (from_sexpr("(a (b c) d)"), from_sexpr("(a (b x) e)")),
        (from_sexpr("(a (b (c d)))"), from_sexpr("(x (b d))")),
    ]
    with obs.collect() as c:
        results = ted_many(pairs)
    assert "zs.cross_calls" not in c.counters
    assert [r.distance for r in results] == [float(d) for d in _oracle(pairs)]


def test_ted_many_custom_cost_bypasses_batching():
    cost = Cost(
        delete=lambda n: 1.0,
        insert=lambda n: 1.0,
        relabel=lambda a, b: 2.0,
    )
    clear_ted_cache()
    t = from_sexpr("(a (b c))")
    pairs = [(t, t.copy())]
    (batch,) = ted_many(pairs, cost)
    (single,) = [ted(t, t.copy(), cost)]
    assert batch.distance == single.distance > 0.0
