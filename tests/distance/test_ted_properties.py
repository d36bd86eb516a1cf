"""Property-based TED tests: oracle agreement and metric axioms."""

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from repro import obs
from repro.distance import brute_force_ted
from repro.distance.zhang_shasha import zhang_shasha_distance, zhang_shasha_generic
from repro.trees import Node, from_sexpr

_LABELS = ("a", "b", "c")
#: unit costs for the generic reference kernel
_UNIT = (
    lambda n: 1.0,
    lambda n: 1.0,
    lambda a, b: 0.0 if a.label == b.label else 1.0,
)


@st.composite
def small_trees(draw, max_nodes=9):
    """Random ordered trees by parent-attachment."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    nodes = [Node(draw(st.sampled_from(_LABELS)))]
    for _ in range(n - 1):
        parent = draw(st.integers(min_value=0, max_value=len(nodes) - 1))
        child = Node(draw(st.sampled_from(_LABELS)))
        nodes[parent].add(child)
        nodes.append(child)
    return nodes[0]


@st.composite
def mid_trees(draw, max_nodes=40):
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    nodes = [Node(draw(st.sampled_from(_LABELS)))]
    for _ in range(n - 1):
        parent = draw(st.integers(min_value=0, max_value=len(nodes) - 1))
        child = Node(draw(st.sampled_from(_LABELS)))
        nodes[parent].add(child)
        nodes.append(child)
    return nodes[0]


@st.composite
def grafted_trees(draw, max_nodes=9):
    """Random ordered trees that repeat subtrees: each step attaches either
    a new leaf or a copy of an existing subtree to a random node. Repeats
    make twin keyroots on either side of a pair, including twins nested in
    a kept keyroot whose first occurrence lies outside it."""
    target = draw(st.integers(min_value=1, max_value=max_nodes))
    nodes = [Node(draw(st.sampled_from(_LABELS)))]
    while len(nodes) < target:
        parent = nodes[draw(st.integers(min_value=0, max_value=len(nodes) - 1))]
        child = Node(draw(st.sampled_from(_LABELS)))
        if draw(st.booleans()):
            src = nodes[draw(st.integers(min_value=0, max_value=len(nodes) - 1))]
            if len(nodes) + src.size() <= target:
                child = src.copy()
        parent.add(child)
        nodes.extend(child.postorder())
    return nodes[0]


def mirror(t: Node) -> Node:
    """A copy of ``t`` with every node's children in reverse order."""
    return Node(t.label, children=[mirror(c) for c in reversed(t.children)])


# Hand-built pairs, one per twin case, run on every test invocation:
#: T1's last leaf c repeats the keyroot c inside (b c c); the root's
#: partial row for it reads that keyroot's treedist row through ``canon1``.
_T1_TWINS = ("(a (b c c) c)", "(a c (c c))")
#: T2 repeats (b c) inside the keyroot (e f (b c)), whose first occurrence
#: lies outside it: that segment must sweep in a later wave than (b c).
#: L·L = 8·16 < R·R = 11·12 keeps the pair on the path where both (b c)
#: are keyroots.
_T2_NESTED_TWIN = ("(a (b (c d e)) f)", "(r x (b c) (e f (b c)))")


@settings(max_examples=150, deadline=None)
@given(grafted_trees(), grafted_trees())
@example(*map(from_sexpr, _T1_TWINS))
@example(*map(from_sexpr, _T2_NESTED_TWIN))
def test_row_sweep_matches_brute_force(t1, t2):
    # random trees mostly take the left path; their mirror images take the
    # right one, and unit-cost TED is unchanged when both trees are mirrored
    expected = brute_force_ted(t1, t2)
    assert zhang_shasha_distance(t1, t2) == expected
    assert zhang_shasha_distance(mirror(t1), mirror(t2)) == expected


@settings(max_examples=60, deadline=None)
@given(grafted_trees(max_nodes=40), grafted_trees(max_nodes=40))
def test_row_sweep_matches_generic_kernel(t1, t2):
    expected = zhang_shasha_generic(t1, t2, *_UNIT)
    assert zhang_shasha_distance(t1, t2) == expected
    assert zhang_shasha_distance(mirror(t1), mirror(t2)) == expected


@pytest.mark.parametrize(
    "app, m1, m2, cells, swept",
    [
        # 287 x 322 nodes; R(T1)·R(T2) = 740,246 < L(T1)·L(T2) = 975,312
        pytest.param("babelstream", "serial", "omp", 740_246, 400_610, id="right-path"),
        # 305 x 362 nodes; L(T1)·L(T2) = 1,187,370 < R(T1)·R(T2) = 1,868,223
        pytest.param(
            "babelstream-fortran", "sequential", "omp", 1_187_370, 813_372, id="left-path"
        ),
    ],
)
def test_row_sweep_matches_generic_on_corpus_pair(app, m1, m2, cells, swept):
    """The row sweep at the scale every benchmark pair runs, far above the
    random trees above, on ``main`` T_src pairs that take each path.

    ``swept`` is the product, over both sides, of the summed sizes of the
    keyroots whose subtree (as an s-expression on the chosen path) is the
    first of its kind: twin keyroots are swept once."""
    from repro.corpus.registry import index_model

    t1 = index_model(app, m1).units["main"].tree("src")
    t2 = index_model(app, m2).units["main"].tree("src")
    assert t1.size() * t2.size() > 30_000
    with obs.collect() as c:
        d = zhang_shasha_distance(t1, t2)
    assert c.counters["zs.dp_cells"] == cells  # pins the branch taken
    assert c.counters["zs.swept_cells"] == swept  # pins the twins skipped
    assert d == zhang_shasha_generic(t1, t2, *_UNIT)


@settings(max_examples=60, deadline=None)
@given(mid_trees())
def test_identity_axiom(t):
    assert zhang_shasha_distance(t, t) == 0


@settings(max_examples=60, deadline=None)
@given(mid_trees(), mid_trees())
def test_symmetry_axiom(t1, t2):
    assert zhang_shasha_distance(t1, t2) == zhang_shasha_distance(t2, t1)


@settings(max_examples=25, deadline=None)
@given(small_trees(), small_trees(), small_trees())
def test_triangle_inequality(a, b, c):
    dab = zhang_shasha_distance(a, b)
    dbc = zhang_shasha_distance(b, c)
    dac = zhang_shasha_distance(a, c)
    assert dac <= dab + dbc


@settings(max_examples=60, deadline=None)
@given(mid_trees(), mid_trees())
def test_bounded_by_dmax_sum(t1, t2):
    # deleting everything then inserting everything is always an upper bound
    d = zhang_shasha_distance(t1, t2)
    assert d <= t1.size() + t2.size()
    # and at least the size difference
    assert d >= abs(t1.size() - t2.size())
