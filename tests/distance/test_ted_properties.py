"""Property-based TED tests: oracle agreement and metric axioms."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.distance import brute_force_ted
from repro.distance.zhang_shasha import zhang_shasha_distance, zhang_shasha_generic
from repro.trees import Node

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
        nodes[parent].children.append(child)
        nodes.append(child)
    return nodes[0]


@st.composite
def mid_trees(draw, max_nodes=40):
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    nodes = [Node(draw(st.sampled_from(_LABELS)))]
    for _ in range(n - 1):
        parent = draw(st.integers(min_value=0, max_value=len(nodes) - 1))
        child = Node(draw(st.sampled_from(_LABELS)))
        nodes[parent].children.append(child)
        nodes.append(child)
    return nodes[0]


@settings(max_examples=120, deadline=None)
@given(small_trees(), small_trees())
def test_hybrid_matches_brute_force(t1, t2):
    assert zhang_shasha_distance(t1, t2) == brute_force_ted(t1, t2)


@settings(max_examples=40, deadline=None)
@given(mid_trees(), mid_trees())
def test_hybrid_matches_generic_kernel(t1, t2):
    assert zhang_shasha_distance(t1, t2) == zhang_shasha_generic(t1, t2, *_UNIT)


def test_row_sweep_matches_generic_on_corpus_pair():
    """The row sweep at the scale every benchmark pair runs, far above the
    random trees above: BabelStream serial vs omp ``main`` T_src."""
    from repro.corpus.registry import index_model

    t1 = index_model("babelstream", "serial").units["main"].tree("src")
    t2 = index_model("babelstream", "omp").units["main"].tree("src")
    assert t1.size() * t2.size() > 30_000  # 287 x 322 nodes
    assert zhang_shasha_distance(t1, t2) == zhang_shasha_generic(t1, t2, *_UNIT)


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
