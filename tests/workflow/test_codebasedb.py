"""Codebase DB save/load round trip and the flat tree encoding."""

import struct

import pytest

from repro.metrics import sloc, tree_distance
from repro.serde import pack, read_blob, write_blob
from repro.trees import Node, SourceSpan, from_sexpr, structural_hash
from repro.trees.hashing import cached_structural_hash
from repro.workflow.codebasedb import (
    _unit_from_obj,
    _unit_to_obj,
    decode_tree,
    encode_tree,
    load_codebase_db,
    save_codebase_db,
)
from repro.util.errors import SerdeError


class TestRoundTrip:
    def test_metrics_identical_after_reload(self, tmp_path, stream_serial, stream_omp):
        p1 = tmp_path / "serial.svdb"
        p2 = tmp_path / "omp.svdb"
        save_codebase_db(stream_serial, p1)
        save_codebase_db(stream_omp, p2)
        a = load_codebase_db(p1)
        b = load_codebase_db(p2)
        assert a.model == "serial" and b.model == "omp"
        # absolute metric identical
        assert sloc(a) == sloc(stream_serial)
        # relative metric identical
        d0 = tree_distance(stream_serial, stream_omp, "sem")
        d1 = tree_distance(a, b, "sem")
        assert d0 == d1

    def test_trees_structurally_equal(self, tmp_path, stream_serial):
        p = tmp_path / "s.svdb"
        save_codebase_db(stream_serial, p)
        back = load_codebase_db(p)
        orig = stream_serial.units["main"]
        got = back.units["main"]
        assert got.t_sem == orig.t_sem
        assert got.t_src_pre == orig.t_src_pre
        assert got.t_ir == orig.t_ir

    def test_coverage_restored(self, tmp_path, stream_serial):
        p = tmp_path / "s.svdb"
        save_codebase_db(stream_serial, p)
        back = load_codebase_db(p)
        assert back.coverage is not None
        assert back.coverage.total_hits() == stream_serial.coverage.total_hits()

    def test_spec_restored(self, tmp_path, stream_cuda):
        p = tmp_path / "c.svdb"
        save_codebase_db(stream_cuda, p)
        back = load_codebase_db(p)
        assert back.spec.dialect == "cuda"
        assert back.spec.units == stream_cuda.spec.units

    def test_foreign_format_rejected(self, tmp_path):
        p = tmp_path / "x.svdb"
        write_blob(p, {"format": 99})
        with pytest.raises(SerdeError, match="format"):
            load_codebase_db(p)


def _rows_case(edit):
    """A case that edits the int32 rows, ``[label, kind, count, file,
    first, last]`` per node; ``edit(rows, n_strings)`` works in place."""

    def make(enc):
        ints = list(struct.unpack(f"<{len(enc[1]) // 4}i", enc[1]))
        rows = [ints[i : i + 6] for i in range(0, len(ints), 6)]
        edit(rows, len(enc[0]))
        flat = [v for row in rows for v in row]
        return [enc[0], struct.pack(f"<{len(flat)}i", *flat), enc[2]]

    return make


def _attr_case(edit):
    """A case that replaces the first attribute's ``[indices, values]``."""

    def make(enc):
        key, (index, values) = next(iter(enc[2].items()))
        return [enc[0], enc[1], {**enc[2], key: edit(index, values)}]

    return make


@_rows_case
def _string_id_out_of_range(rows, n_strings):
    rows[1][0] = n_strings


@_rows_case
def _counts_overrun(rows, _):
    rows[0][2] += 1


@_rows_case
def _counts_underrun(rows, _):
    rows[0][2] -= 1


@_rows_case
def _counts_close_root_early(rows, _):
    # the counts still sum to n - 1, but the root takes no children
    rows[-1][2] += rows[0][2]
    rows[0][2] = 0


@_rows_case
def _negative_count(rows, _):
    rows[-1][2] = -1
    rows[0][2] += 1


@_rows_case
def _span_ends_before_start(rows, _):
    rows[0][5] = rows[0][4] - 1


#: one misshapen tree section per case, each made from a valid encoding of
#: a tree with at least two nodes and one attribute (shared with the
#: unit-artifact tests in test_incremental.py)
MISSHAPEN = {
    "truncated columns": lambda enc: [enc[0], enc[1][:-1], enc[2]],
    "string id out of range": _string_id_out_of_range,
    "child counts overrun": _counts_overrun,
    "child counts underrun": _counts_underrun,
    "child counts close the root early": _counts_close_root_early,
    "negative child count": _negative_count,
    "attribute index out of range": _attr_case(
        lambda index, values: [index[:-4] + struct.pack("<i", 10**6), values]
    ),
    "attribute values of mismatched length": _attr_case(
        lambda index, values: [index, values + values[:1]]
    ),
    "span ends before it starts": _span_ends_before_start,
}


def sample_tree():
    t = from_sexpr("(a (b c) d)")
    for i, node in enumerate(t.preorder()):
        node.span = SourceSpan("f.cpp", 3 + i, 4 + i)
        node.attrs["name"] = f"n{i}"
    return t


class TestTreeEncoding:
    def test_corpus_trees_round_trip_exactly(self, stream_serial):
        unit = stream_serial.units["main"]
        for t in (unit.t_src_pre, unit.t_src_post, unit.t_sem, unit.t_sem_inlined, unit.t_ir):
            enc = encode_tree(t)
            back = decode_tree(enc)
            assert structural_hash(back) == structural_hash(t)
            for a, b in zip(t.preorder(), back.preorder(), strict=True):
                assert (a.label, a.kind, a.span) == (b.label, b.kind, b.span)
                assert b.attrs == {k: v for k, v in a.attrs.items() if not k.startswith("_")}
            assert pack(encode_tree(back)) == pack(enc)

    def test_single_node(self):
        back = decode_tree(encode_tree(Node("", "ü")))
        assert (back.label, back.kind, back.span, back.attrs) == ("", "ü", None, {})
        assert back.children == ()

    def test_deep_chain_is_iterative(self):
        root = Node("n0")
        cur = root
        for i in range(1, 10_000):
            cur.add(Node(f"n{i % 7}", span=SourceSpan("f.cpp", i)))
            cur = cur.children[0]
        enc = encode_tree(root)
        back = decode_tree(enc)
        assert back.depth() == 10_000
        assert structural_hash(back) == structural_hash(root)
        assert pack(encode_tree(back)) == pack(enc)

    def test_identical_spans_shared(self):
        t = from_sexpr("(a b c)")
        for node in t.preorder():
            node.span = SourceSpan("f.cpp", 7)
        back = decode_tree(encode_tree(t))
        assert back.children[0].span is back.children[1].span is back.span

    def test_memo_attrs_not_stored(self):
        t = sample_tree()
        cached_structural_hash(t)
        back = decode_tree(encode_tree(t))
        assert "_shash" not in back.attrs
        assert cached_structural_hash(back) == structural_hash(t)

    def test_stale_memo_not_persisted(self):
        # a stripped copy inherits its source's _shash; the encoding must
        # not carry that stale hash to disk
        t = sample_tree()
        cached_structural_hash(t)
        stripped = t.filter_subtrees(lambda n: n.label != "d")
        back = decode_tree(encode_tree(stripped))
        assert cached_structural_hash(back) == structural_hash(stripped) != structural_hash(t)

    def test_value_outside_int32_is_serde_error(self):
        with pytest.raises(SerdeError, match="int32"):
            encode_tree(Node("x", span=SourceSpan("f.cpp", 2**31)))


class TestMisshapenTrees:
    def test_sample_is_valid(self):
        t = sample_tree()
        assert decode_tree(encode_tree(t)) == t

    @pytest.mark.parametrize("case", sorted(MISSHAPEN))
    def test_decode_rejects(self, case):
        with pytest.raises(ValueError):
            decode_tree(MISSHAPEN[case](encode_tree(sample_tree())))

    @pytest.mark.parametrize("case", sorted(MISSHAPEN))
    def test_load_codebase_db_names_the_file(self, tmp_path, stream_serial, case):
        p = tmp_path / "s.svdb"
        save_codebase_db(stream_serial, p)
        obj = read_blob(p)
        unit = obj["units"]["main"]
        unit["t_sem"] = MISSHAPEN[case](encode_tree(sample_tree()))
        write_blob(p, obj)
        with pytest.raises(SerdeError, match="s.svdb"):
            load_codebase_db(p)

    def test_nested_tree_format_rejected(self, tmp_path):
        p = tmp_path / "old.svdb"
        write_blob(p, {"format": 2})
        with pytest.raises(SerdeError, match="unsupported Codebase DB format 2"):
            load_codebase_db(p)


#: tree-field edits that leave a reference no earlier tree can satisfy
BAD_REFS = {
    "later": {"t_src_pre": "t_src_post"},
    "self": {"t_sem": "t_sem"},
    "absent": {"t_src_pre": None, "t_src_post": "t_src_pre"},
    "unknown": {"t_sem_i": "t_bogus"},
}


class TestSharedTrees:
    """A tree that *is* an earlier field's tree (the Fortran frontend shares
    T_src pre/post and T_sem / T_sem+i) is stored as that field's name."""

    def test_fortran_db_keeps_shared_trees(self, tmp_path, fortran_sequential):
        orig = fortran_sequential.units["main"]
        assert orig.t_src_post is orig.t_src_pre and orig.t_sem_inlined is orig.t_sem
        p = tmp_path / "f.svdb"
        save_codebase_db(fortran_sequential, p)
        stored = read_blob(p)["units"]["main"]
        assert stored["t_src_post"] == "t_src_pre" and stored["t_sem_i"] == "t_sem"
        got = load_codebase_db(p).units["main"]
        assert got.t_src_post is got.t_src_pre and got.t_sem_inlined is got.t_sem
        assert got.t_src_pre == orig.t_src_pre and got.t_sem == orig.t_sem
        assert got.t_src_pre is not got.t_sem

    def test_unshared_trees_are_all_encoded(self, stream_serial):
        obj = _unit_to_obj(stream_serial.units["main"])
        trees = [obj[k] for k in ("t_src_pre", "t_src_post", "t_sem", "t_sem_i", "t_ir")]
        assert all(isinstance(t, list) for t in trees)

    @pytest.mark.parametrize("case", sorted(BAD_REFS))
    def test_bad_reference_rejected(self, fortran_sequential, case):
        obj = _unit_to_obj(fortran_sequential.units["main"])
        obj.update(BAD_REFS[case])
        with pytest.raises(ValueError, match="no earlier tree"):
            _unit_from_obj(obj)

    @pytest.mark.parametrize("case", sorted(BAD_REFS))
    def test_bad_reference_names_the_file(self, tmp_path, fortran_sequential, case):
        p = tmp_path / "f.svdb"
        save_codebase_db(fortran_sequential, p)
        obj = read_blob(p)
        obj["units"]["main"].update(BAD_REFS[case])
        write_blob(p, obj)
        with pytest.raises(SerdeError, match="f.svdb"):
            load_codebase_db(p)
