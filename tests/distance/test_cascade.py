"""Pruning-cascade properties: every bound is valid, pruning is exact.

The cascade's contract (DESIGN.md "Pruning cascade contract") is that each
stage's lower bound never exceeds the true TED, the greedy upper bound
never undercuts it, and a prune happens only when the two meet — which
pins the exact distance. These tests check each clause independently on
seeded random trees. ``ted()`` no longer consults the cascade, so nothing
here pins its place in the TED path.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.distance import cascade
from repro.distance.bounds import (
    BruteForceOracle,
    preorder_labels,
    sequence_lower_bound,
    set_oracle,
    stats_lower_bound,
    upper_bound,
)
from repro.distance.cascade import cascade_distance
from repro.distance.levenshtein import levenshtein, levenshtein_bounded
from repro.distance.ted import Cost, TedResult, clear_ted_cache, ted
from repro.distance.zhang_shasha import zhang_shasha_distance, zhang_shasha_generic
from repro.trees import Node, from_sexpr
from repro.trees.stats import cached_label_histogram, histogram_lower_bound

_LABELS = ("a", "b", "c")


@st.composite
def mid_trees(draw, max_nodes=40):
    """Random ordered trees by parent-attachment."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    nodes = [Node(draw(st.sampled_from(_LABELS)))]
    for _ in range(n - 1):
        parent = draw(st.integers(min_value=0, max_value=len(nodes) - 1))
        child = Node(draw(st.sampled_from(_LABELS)))
        nodes[parent].children.append(child)
        nodes.append(child)
    return nodes[0]


# ---------------------------------------------------------------------------
# Stage bounds vs the exact kernel
# ---------------------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(mid_trees(), mid_trees())
def test_stats_bound_below_exact(t1, t2):
    assert stats_lower_bound(t1, t2) <= zhang_shasha_distance(t1, t2)


@settings(max_examples=80, deadline=None)
@given(mid_trees(), mid_trees())
def test_histogram_bound_below_exact(t1, t2):
    lb = histogram_lower_bound(cached_label_histogram(t1), cached_label_histogram(t2))
    assert lb <= zhang_shasha_distance(t1, t2)


@settings(max_examples=80, deadline=None)
@given(mid_trees(), mid_trees())
def test_sequence_bound_below_exact(t1, t2):
    exact = zhang_shasha_distance(t1, t2)
    # with an infinite cap the sequence stage is the plain preorder-label
    # Levenshtein distance, which tree edits can never undercut
    lb = sequence_lower_bound(t1, t2, cap=1 << 30)
    assert lb <= exact


@settings(max_examples=80, deadline=None)
@given(mid_trees(), mid_trees())
def test_upper_bound_above_exact(t1, t2):
    assert upper_bound(t1, t2) >= zhang_shasha_distance(t1, t2)


@settings(max_examples=40, deadline=None)
@given(mid_trees(), mid_trees())
def test_budget_capped_upper_bound_still_valid(t1, t2):
    # the overrun fallback (delete one tree, insert the other) must also
    # hold when the child-alignment budget is absurdly small
    assert upper_bound(t1, t2, max_cells=1) >= zhang_shasha_distance(t1, t2)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.sampled_from(_LABELS), max_size=12),
    st.lists(st.sampled_from(_LABELS), max_size=12),
    st.integers(min_value=0, max_value=14),
)
def test_levenshtein_bounded_contract(a, b, cap):
    full = levenshtein(a, b)
    got = levenshtein_bounded(a, b, cap)
    if got < cap:
        assert got == full
    else:
        assert cap <= got <= max(full, cap)
        assert got <= full or full >= cap


# ---------------------------------------------------------------------------
# The cascade decision
# ---------------------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(mid_trees(), mid_trees())
def test_cascade_prune_is_exact(t1, t2):
    # force the size gate open so small random pairs exercise the stages
    prev = cascade._MIN_CELLS
    cascade._MIN_CELLS = 1
    try:
        hit = cascade_distance(t1, t2)
    finally:
        cascade._MIN_CELLS = prev
    if hit is not None:
        d, stage = hit
        # "hash" is the oracle's identical-tree stage (upstream ted() usually
        # short-circuits these pairs before the cascade ever sees them)
        assert stage in ("hash", "stats", "histogram", "sequence")
        assert d == zhang_shasha_distance(t1, t2)


def test_cascade_respects_size_gate():
    # default gate: tiny pairs never pay for bound computation
    t1 = from_sexpr("(a (b c) (d e))")
    t2 = from_sexpr("(x (y z))")
    assert cascade_distance(t1, t2) is None


def test_cascade_disabled_returns_none(monkeypatch):
    from repro import obs

    # the null oracle is the cascade's off switch: no bounds, no counters
    monkeypatch.setattr(cascade, "_MIN_CELLS", 1)
    prev = set_oracle(BruteForceOracle())
    try:
        with obs.collect() as c:
            assert cascade_distance(from_sexpr("(a b)"), from_sexpr("(x (y z))")) is None
    finally:
        set_oracle(prev)
    assert not any(k.startswith("ted.cascade.") for k in c.counters)


def test_preorder_labels_memoised():
    t = from_sexpr("(a (b c) d)")
    first = preorder_labels(t)
    assert first == ("a", "b", "c", "d")
    assert preorder_labels(t) is first


@settings(max_examples=60, deadline=None)
@given(mid_trees(), mid_trees())
def test_ted_with_cascade_matches_kernel(t1, t2):
    prev = cascade._MIN_CELLS
    cascade._MIN_CELLS = 1
    try:
        clear_ted_cache()
        assert ted(t1, t2).distance == zhang_shasha_distance(t1, t2)
    finally:
        cascade._MIN_CELLS = prev


# ---------------------------------------------------------------------------
# Satellite bugfix regressions
# ---------------------------------------------------------------------------


class TestNormalizedEmptyTarget:
    def test_empty_target_reports_full_divergence(self):
        # distance > 0 against a zero-size target used to normalise to 0.0,
        # masking full divergence as "identical"
        r = TedResult(5.0, 5, 0)
        assert r.normalized == 1.0

    def test_both_empty_is_zero(self):
        assert TedResult(0.0, 0, 0).normalized == 0.0

    def test_regular_normalisation_unchanged(self):
        assert TedResult(2.0, 4, 8).normalized == 0.25


class TestShortcutCostGate:
    def _nonzero_identity_cost(self):
        return Cost(
            delete=lambda n: 1.0,
            insert=lambda n: 1.0,
            relabel=lambda a, b: 2.0,  # even relabel(x, x) costs 2
        )

    def test_identical_trees_not_shortcut_under_custom_cost(self):
        clear_ted_cache()
        t = from_sexpr("(a (b c) (d e))")
        cost = self._nonzero_identity_cost()
        r = ted(t, t.copy(), cost)
        want = zhang_shasha_generic(
            t, t.copy(), cost.delete, cost.insert, cost.relabel
        )
        assert not r.shortcut
        assert r.distance == want > 0.0

    def test_custom_cost_never_reads_unit_memo(self):
        clear_ted_cache()
        t1 = from_sexpr("(a (b c))")
        t2 = from_sexpr("(a (b x))")
        ted(t1, t2)  # seeds the unit-cost memo with distance 1
        cost = self._nonzero_identity_cost()
        r = ted(t1, t2, cost)
        assert not r.cached
        assert r.distance == zhang_shasha_generic(
            t1, t2, cost.delete, cost.insert, cost.relabel
        )

    def test_unit_cost_instance_still_shortcuts(self):
        from repro.distance.ted import UnitCost

        clear_ted_cache()
        t = from_sexpr("(a (b c))")
        assert ted(t, t.copy(), UnitCost()).shortcut
