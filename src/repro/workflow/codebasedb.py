"""Codebase DB persistence (paper Fig. 2).

The index step's output — "a portable set of semantic-bearing trees and
metadata files" — serialised with the from-scratch MessagePack codec into
the compressed container, and restored without re-running the frontends.

Trees use one flat encoding, shared by unit artifacts and the Codebase DB
export (DESIGN.md §"Unit artifact key contract"): a MessagePack array
``[strings, columns, attrs]``. ``strings`` is a string table of labels,
kinds and span files in first-seen order. ``columns`` is one ``bin`` of
little-endian int32 rows, one per node in preorder: label id, kind id,
child count, span file id (``-1`` for no span), first line, last line.
``attrs`` maps each attribute key to ``[indices, values]``: the node
indices as an int32 ``bin`` and the values as a list. Only ``str``,
``int``, ``float`` and ``bool`` values are stored, and no key that starts
with ``_`` (those are in-memory memos such as ``_shash``).

A unit's trees are encoded in a fixed field order (``t_src_pre``,
``t_src_post``, ``t_sem``, ``t_sem_i``, ``t_ir``). A tree that *is* an
earlier field's tree (the Fortran frontend shares ``T_src`` pre/post and
``T_sem`` / ``T_sem+i``) is stored as that field's name and decoded to the
same object, so a loaded unit keeps the sharing of the unit that was saved.
"""

from __future__ import annotations

import operator
import struct
from itertools import accumulate
from pathlib import Path
from typing import Any, Union

from repro.coverage.profile import CoverageProfile
from repro.lang.source import VirtualFS
from repro.serde.container import read_blob, write_blob
from repro.trees.node import Node, SourceSpan
from repro.util.errors import SerdeError
from repro.workflow.codebase import IndexedCodebase, IndexedUnit, ModelSpec

_FORMAT = 4

#: int32 columns per node: label, kind, child count, span file, first, last line
_COLS = 6
_SCALARS = (str, int, float, bool)


def _int32s(values: list[int]) -> bytes:
    try:
        return struct.pack(f"<{len(values)}i", *values)
    except struct.error as e:
        raise SerdeError(f"tree column value outside int32: {e}") from e


def encode_tree(root: Node) -> list:
    """The flat form of one tree (see the module docstring). Deterministic:
    encoding a decoded tree gives the same bytes again."""
    strings: dict[str, int] = {}
    sid = strings.setdefault
    cols: list[int] = []
    attrs: dict[str, tuple[list[int], list[Any]]] = {}
    for i, node in enumerate(root.preorder()):
        span = node.span
        cols += (sid(node.label, len(strings)), sid(node.kind, len(strings)), len(node.children))
        if span is None:
            cols += (-1, 0, 0)
        else:
            cols += (sid(span.file, len(strings)), span.line_start, span.line_end)
        for key, value in node.attrs.items():
            if not key.startswith("_") and isinstance(value, _SCALARS):
                index, values = attrs.setdefault(key, ([], []))
                index.append(i)
                values.append(value)
    return [
        list(strings),
        _int32s(cols),
        {key: [_int32s(index), values] for key, (index, values) in attrs.items()},
    ]


def _in_range(ids: tuple[int, ...], lo: int, hi: int) -> bool:
    return not ids or (min(ids) >= lo and max(ids) < hi)


def _attr_columns(attrs: Any, n: int) -> list[tuple[str, tuple[int, ...], list]]:
    """``(key, node indices, values)`` per stored attribute, validated."""
    if not isinstance(attrs, dict):
        raise ValueError("tree attrs are not a map")
    out = []
    for key, column in attrs.items():
        if not (
            isinstance(key, str)
            and isinstance(column, list)
            and len(column) == 2
            and isinstance(column[0], bytes)
            and len(column[0]) % 4 == 0
            and isinstance(column[1], list)
        ):
            raise ValueError(f"tree attr {key!r} is not an [indices, values] pair")
        index = struct.unpack(f"<{len(column[0]) // 4}i", column[0])
        values = column[1]
        if len(values) != len(index):
            raise ValueError(f"tree attr {key!r} has {len(values)} values for {len(index)} nodes")
        if not _in_range(index, 0, n):
            raise ValueError(f"tree attr {key!r} node index out of range")
        if not all(isinstance(v, _SCALARS) for v in values):
            raise ValueError(f"tree attr {key!r} holds a non-scalar value")
        out.append((key, index, values))
    return out


def decode_tree(obj: Any) -> Node:
    """Inverse of :func:`encode_tree`, in one linear pass. The whole
    encoding is validated before any node is built; a misshapen one raises
    :class:`ValueError`."""
    if not isinstance(obj, list) or len(obj) != 3:
        raise ValueError("tree is not a [strings, columns, attrs] triple")
    strings, columns, attrs = obj
    if not isinstance(strings, list) or not all(type(s) is str for s in strings):
        raise ValueError("tree string table is not a list of strings")
    if not isinstance(columns, bytes) or not columns or len(columns) % (4 * _COLS):
        raise ValueError("tree columns are not whole rows of six int32 values")
    n = len(columns) // (4 * _COLS)
    ints = struct.unpack(f"<{n * _COLS}i", columns)
    labels, kinds, counts = ints[0::_COLS], ints[1::_COLS], ints[2::_COLS]
    files, firsts, lasts = ints[3::_COLS], ints[4::_COLS], ints[5::_COLS]
    ns = len(strings)
    if not (_in_range(labels, 0, ns) and _in_range(kinds, 0, ns) and _in_range(files, -1, ns)):
        raise ValueError("tree string id out of range")
    if min(counts) < 0:
        raise ValueError("tree child count is negative")
    if sum(counts) != n - 1:
        raise ValueError(f"tree child counts sum to {sum(counts)}, not {n - 1}")
    # row i fills one open child slot and opens counts[i] more: the slots
    # may only run out at the last row, or some row has no parent
    if n > 1 and min(accumulate(c - 1 for c in counts[:-1])) < 0:
        raise ValueError("tree child counts close the root early")
    if min(map(operator.sub, lasts, firsts)) < 0:
        raise ValueError("tree span ends before it starts")
    attr_columns = _attr_columns(attrs, n)

    spans = [
        None if f < 0 else SourceSpan(strings[f], first, last)
        for f, first, last in zip(files, firsts, lasts)
    ]
    nodes = list(
        map(Node, [strings[i] for i in labels], [strings[i] for i in kinds], [None] * n, spans)
    )
    # preorder with child counts: each node is the next child of the
    # innermost parent that still has children to take; only a row with
    # children gets a list (a leaf keeps the shared empty tuple)
    open_parents: list[list] = []
    for node, count in zip(nodes, counts):
        if open_parents:
            slot = open_parents[-1]
            slot[0].append(node)
            slot[1] -= 1
            if not slot[1]:
                open_parents.pop()
        if count:
            node.children = kids = []
            open_parents.append([kids, count])
    for key, index, values in attr_columns:
        for i, value in zip(index, values):
            nodes[i].attrs[key] = value
    return nodes[0]


#: (payload key, ``IndexedUnit`` attribute) of each tree, in encoding order
_TREE_FIELDS = (
    ("t_src_pre", "t_src_pre"),
    ("t_src_post", "t_src_post"),
    ("t_sem", "t_sem"),
    ("t_sem_i", "t_sem_inlined"),
    ("t_ir", "t_ir"),
)


def _trees_to_obj(u: IndexedUnit) -> dict:
    """Each tree's flat form, or the key of the earlier field it *is*."""
    out: dict = {}
    first_key: dict[int, str] = {}
    for key, attr in _TREE_FIELDS:
        t = getattr(u, attr)
        if t is None:
            out[key] = None
        elif id(t) in first_key:
            out[key] = first_key[id(t)]
        else:
            first_key[id(t)] = key
            out[key] = encode_tree(t)
    return out


def _trees_from_obj(o: dict, u: IndexedUnit) -> None:
    """Inverse of :func:`_trees_to_obj`; a reference to a later, absent or
    unknown field raises :class:`ValueError`."""
    decoded: dict[str, Node] = {}
    for key, attr in _TREE_FIELDS:
        d = o[key]
        if isinstance(d, str):
            if d not in decoded:
                raise ValueError(f"tree {key!r} refers to {d!r}, which is no earlier tree")
            t = decoded[d]
        else:
            t = decode_tree(d) if d is not None else None
        if t is not None:
            decoded[key] = t
        setattr(u, attr, t)


def _unit_to_obj(u: IndexedUnit) -> dict:
    return {
        "role": u.role,
        "path": u.path,
        "deps": u.deps,
        "degraded": u.degraded,
        "sig_pre": {f: sorted(ls) for f, ls in u.sig_lines_pre.items()},
        "sig_post": {f: sorted(ls) for f, ls in u.sig_lines_post.items()},
        "lloc_pre": u.lloc_pre,
        "lloc_post": u.lloc_post,
        "src_lines_pre": u.source_lines_pre,
        "src_lines_post": u.source_lines_post,
        "src_tags_pre": [list(t) for t in u.source_tags_pre],
        "src_tags_post": [list(t) for t in u.source_tags_post],
        **_trees_to_obj(u),
    }


def _unit_from_obj(o: dict) -> IndexedUnit:
    u = IndexedUnit(
        role=o["role"],
        path=o["path"],
        deps=list(o["deps"]),
        degraded=bool(o.get("degraded", False)),
    )
    u.sig_lines_pre = {f: set(ls) for f, ls in o["sig_pre"].items()}
    u.sig_lines_post = {f: set(ls) for f, ls in o["sig_post"].items()}
    u.lloc_pre = dict(o["lloc_pre"])
    u.lloc_post = dict(o["lloc_post"])
    u.source_lines_pre = list(o["src_lines_pre"])
    u.source_lines_post = list(o["src_lines_post"])
    u.source_tags_pre = [tuple(t) for t in o["src_tags_pre"]]
    u.source_tags_post = [tuple(t) for t in o["src_tags_post"]]
    _trees_from_obj(o, u)
    return u


def save_codebase_db(cb: IndexedCodebase, path: Union[str, Path]) -> int:
    """Persist an indexed codebase; returns bytes written."""
    obj = {
        "format": _FORMAT,
        "spec": {
            "app": cb.spec.app,
            "model": cb.spec.model,
            "lang": cb.spec.lang,
            "dialect": cb.spec.dialect,
            "openmp": cb.spec.openmp,
            "units": cb.spec.units,
            "defines": cb.spec.defines,
            "entry": cb.spec.entry,
        },
        "files": dict(cb.fs.files),
        "units": {role: _unit_to_obj(u) for role, u in cb.units.items()},
        "coverage": (
            [[f, ln, c] for (f, ln), c in cb.coverage.hits.items()]
            if cb.coverage is not None
            else None
        ),
        "run_value": cb.run_value if isinstance(cb.run_value, (int, float, str)) else None,
    }
    return write_blob(path, obj)


def load_codebase_db(path: Union[str, Path]) -> IndexedCodebase:
    """Restore an indexed codebase from disk. A foreign, corrupt or
    misshapen file raises :class:`SerdeError` naming it."""
    obj = read_blob(path)
    fmt = obj.get("format") if isinstance(obj, dict) else None
    if fmt != _FORMAT:
        raise SerdeError(f"{path}: unsupported Codebase DB format {fmt!r}")
    try:
        return _codebase_from_obj(obj)
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise SerdeError(f"{path}: malformed Codebase DB: {e!r}") from e


def _codebase_from_obj(obj: dict) -> IndexedCodebase:
    s = obj["spec"]
    spec = ModelSpec(
        app=s["app"],
        model=s["model"],
        lang=s["lang"],
        dialect=s["dialect"],
        openmp=s["openmp"],
        units=dict(s["units"]),
        defines=dict(s["defines"]),
        entry=s["entry"],
    )
    fs = VirtualFS(files=dict(obj["files"]))
    cb = IndexedCodebase(spec=spec, fs=fs)
    cb.units = {role: _unit_from_obj(o) for role, o in obj["units"].items()}
    if obj["coverage"] is not None:
        prof = CoverageProfile()
        for f, ln, c in obj["coverage"]:
            prof.hits[(f, ln)] = c
        cb.coverage = prof
    cb.run_value = obj.get("run_value")
    return cb
