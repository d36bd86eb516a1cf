"""The tree object economy on real units (DESIGN.md, "Tree object economy").

Cold-indexes one C++ and one Fortran port (coverage on, no artifact store)
and checks, over each unit's five trees, what keeps the collector-tracked
objects of an index few: leaves share the empty tuple, equal spans are one
object, and T_sem+i shares T_sem's unchanged subtrees without any node
appearing twice in one tree. Indexing and coverage masking leave no
reference cycle behind: their recursive helpers are module-level functions,
not closures that refer to themselves.
"""

import gc
import sys

import pytest

from repro.corpus import registry
from repro.corpus.registry import build_fs, get_spec, index_model
from repro.trees import node as node_module
from repro.trees.coverage_mask import mask_tree
from repro.workflow.indexer import index_codebase

#: what every childless node holds as ``children``
EMPTY = ()

#: port -> (language, T_sem+i nodes of its unit that are not T_sem nodes)
PORTS = {
    ("babelstream", "omp"): ("cpp", 660),
    ("babelstream-fortran", "omp"): ("fortran", 0),
}


def _trees(u):
    return [t for t in (u.t_src_pre, u.t_src_post, u.t_sem, u.t_sem_inlined, u.t_ir) if t]


@pytest.fixture(scope="module")
def indexed():
    # no clear of the span table while the ports index, so equal spans
    # built for them are one object
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(node_module, "SPAN_TABLE_MAX", sys.maxsize)
        return {
            port: index_codebase(get_spec(*port), build_fs(*port), run_coverage=True)
            for port in PORTS
        }


@pytest.fixture(params=list(PORTS), ids="/".join)
def port(request, indexed):
    cb = indexed[request.param]
    assert cb.units and all(not u.degraded and len(_trees(u)) == 5 for u in cb.units.values())
    return request.param, cb


def test_leaves_share_the_empty_tuple(port):
    _, cb = port
    for u in cb.units.values():
        for t in _trees(u):
            leaves = [n for n in t.preorder() if not n.children]
            assert leaves and all(n.children is EMPTY for n in leaves)
            assert all(type(n.children) is list for n in t.preorder() if n.children)


def test_equal_spans_are_one_object(port):
    _, cb = port
    for u in cb.units.values():
        spans = [n.span for t in _trees(u) for n in t.preorder() if n.span is not None]
        values = {(s.file, s.line_start, s.line_end) for s in spans}
        assert len({id(s) for s in spans}) == len(values) > 0


def test_no_node_twice_within_a_tree(port):
    _, cb = port
    for u in cb.units.values():
        for t in _trees(u):
            ids = [id(n) for n in t.preorder()]
            assert len(ids) == len(set(ids))


def test_sem_inlined_shares_unchanged_subtrees(port):
    name, cb = port
    lang, fresh = PORTS[name]
    for u in cb.units.values():
        sem = {id(n) for n in u.t_sem.preorder()}
        got = sum(id(n) not in sem for n in u.t_sem_inlined.preorder())
        assert got == fresh
        if lang == "cpp":
            assert u.t_sem_inlined is not u.t_sem
            assert u.t_sem_inlined.size() > got  # the rest is T_sem's own nodes
        else:  # the GCC pipeline has no T_sem+i: it is T_sem itself
            assert u.t_sem_inlined is u.t_sem


def _cyclic_garbage(fn) -> list:
    """What only a collection of cyclic garbage would free after ``fn()``."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    gc.garbage.clear()
    try:
        fn()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        return list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("app,model", [("tealeaf", "omp"), ("babelstream-fortran", "omp")])
def test_indexing_leaves_no_reference_cycle(app, model, monkeypatch):
    # an empty registry cache, so index_model indexes afresh
    monkeypatch.setattr(registry, "_INDEX_CACHE", {})
    assert _cyclic_garbage(lambda: index_model(app, model)) == []


def test_coverage_mask_leaves_no_reference_cycle(indexed):
    cb = indexed[("babelstream", "omp")]
    t_sem, mask = cb.units["main"].t_sem, cb.mask()
    masked = []
    assert _cyclic_garbage(lambda: masked.append(mask_tree(t_sem, mask))) == []
    assert 0 < masked[0].size() < t_sem.size()
