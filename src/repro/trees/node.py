"""The n-ary tree node used for all semantic-bearing trees.

Design notes
------------
Nodes are deliberately small (``__slots__``) because TED working sets are
dominated by tree storage; the paper's future-work section calls out TED
memory pressure explicitly, so we keep per-node overhead minimal and convert
to flat postorder arrays inside the distance kernels.

An index keeps every tree of every port alive, and each CPython full
collection rescans every container object it holds, so trees also keep
their collector-tracked objects few (DESIGN.md, "Tree object economy"): a
leaf's ``children`` is the shared empty tuple, and equal spans are one
interned :class:`SourceSpan`.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Optional, Union

#: Bound of the span table: when it holds this many spans it is emptied.
#: Spans compare by value, so one built before a clear equals one built
#: after. A cold index of the whole corpus builds 3,679 distinct spans.
SPAN_TABLE_MAX = 1 << 16

_spans: dict[tuple[str, int, int], "SourceSpan"] = {}


class SourceSpan:
    """Back-reference from a tree node to the source text it came from.

    ``line_start``/``line_end`` are 1-based and inclusive, matching compiler
    diagnostics and GCov line records.

    Spans are immutable and interned: building one returns the process-wide
    object for its ``(file, line_start, line_end)`` from a table bounded by
    :data:`SPAN_TABLE_MAX`. Compare spans by value, never by identity.
    """

    __slots__ = ("file", "line_start", "line_end")

    def __new__(cls, file: str, line_start: int, line_end: Optional[int] = None) -> "SourceSpan":
        key = (file, line_start, line_start if line_end is None else line_end)
        span = _spans.get(key)
        if span is None:
            if key[2] < line_start:
                raise ValueError(f"span end {key[2]} before start {line_start}")
            span = object.__new__(cls)
            object.__setattr__(span, "file", file)
            object.__setattr__(span, "line_start", line_start)
            object.__setattr__(span, "line_end", key[2])
            if len(_spans) >= SPAN_TABLE_MAX:
                _spans.clear()
            _spans[key] = span
        return span

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("SourceSpan is immutable")

    def __reduce__(self):
        return SourceSpan, (self.file, self.line_start, self.line_end)

    def __repr__(self) -> str:
        return f"SourceSpan({self.file!r}, {self.line_start}, {self.line_end})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SourceSpan)
            and self.file == other.file
            and self.line_start == other.line_start
            and self.line_end == other.line_end
        )

    def __hash__(self) -> int:
        return hash((self.file, self.line_start, self.line_end))

    def contains_line(self, file: str, line: int) -> bool:
        """True when (file, line) falls inside this span."""
        return self.file == file and self.line_start <= line <= self.line_end

    def union(self, other: "SourceSpan") -> "SourceSpan":
        """Smallest single-file span covering both spans (files must match)."""
        if self.file != other.file:
            raise ValueError("cannot union spans from different files")
        return SourceSpan(
            self.file,
            min(self.line_start, other.line_start),
            max(self.line_end, other.line_end),
        )


class Node:
    """An n-ary labelled tree node.

    Attributes
    ----------
    label:
        The node label used by TED relabel costs. After name normalisation
        this is a token *type* ("var", "call", ...), never a programmer name.
    kind:
        Coarse category ("decl", "stmt", "expr", "tok", "instr", ...); kept
        separate from label so analyses can filter without string parsing.
    children:
        Ordered children (TED is an ordered-tree distance). A leaf holds the
        shared empty tuple ``()``; :meth:`add` is the only way to grow a
        node, and gives a leaf a list of its own on its first child.
    span:
        Optional :class:`SourceSpan` back-reference (interned, so many
        nodes share one).
    attrs:
        Free-form metadata (symbol names before normalisation, callee links
        for inlining, semantic flags). Not consulted by distance kernels.
    """

    __slots__ = ("label", "kind", "children", "span", "attrs")

    def __init__(
        self,
        label: str,
        kind: str = "node",
        children: Optional[Iterable["Node"]] = None,
        span: Optional[SourceSpan] = None,
        attrs: Optional[dict] = None,
    ):
        self.label = label
        self.kind = kind
        self.children: Union[list[Node], tuple[()]] = (list(children) or ()) if children else ()
        self.span = span
        self.attrs: dict[str, Any] = attrs or {}

    # -- construction -----------------------------------------------------
    def add(self, child: "Node") -> "Node":
        """Append ``child`` and return ``self`` (builder chaining); a leaf
        trades the shared empty tuple for a list of its own."""
        if self.children:
            self.children.append(child)
        else:
            self.children = [child]
        return self

    def copy(self, deep: bool = True) -> "Node":
        """Clone this node; ``deep`` clones the entire subtree."""
        kids = [c.copy(True) for c in self.children] if deep else list(self.children)
        return Node(self.label, self.kind, kids, self.span, dict(self.attrs))

    # -- traversal --------------------------------------------------------
    def preorder(self) -> Iterator["Node"]:
        """Yield nodes root-first (iterative; safe for deep trees)."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def postorder(self) -> Iterator["Node"]:
        """Yield nodes children-first (iterative left-to-right postorder)."""
        stack: list[tuple[Node, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                yield node
            else:
                stack.append((node, True))
                for c in reversed(node.children):
                    stack.append((c, False))

    def walk_with_parent(self) -> Iterator[tuple["Node", Optional["Node"]]]:
        """Preorder traversal yielding (node, parent) pairs."""
        stack: list[tuple[Node, Optional[Node]]] = [(self, None)]
        while stack:
            node, parent = stack.pop()
            yield node, parent
            for c in reversed(node.children):
                stack.append((c, node))

    # -- queries ----------------------------------------------------------
    @property
    def is_leaf(self) -> bool:
        return not self.children

    def size(self) -> int:
        """Total number of nodes in the subtree (|T| in the paper, Eq. 7)."""
        return sum(1 for _ in self.preorder())

    def depth(self) -> int:
        """Height of the subtree; a single node has depth 1."""
        best = 0
        stack = [(self, 1)]
        while stack:
            node, d = stack.pop()
            if d > best:
                best = d
            for c in node.children:
                stack.append((c, d + 1))
        return best

    def find_all(self, predicate: Callable[["Node"], bool]) -> list["Node"]:
        """All nodes in preorder for which ``predicate`` holds."""
        return [n for n in self.preorder() if predicate(n)]

    def find_labels(self, label: str) -> list["Node"]:
        """All nodes with the exact label ``label``."""
        return self.find_all(lambda n: n.label == label)

    # -- transformation ---------------------------------------------------
    def map_nodes(self, fn: Callable[["Node"], "Node"]) -> "Node":
        """Rebuild the tree bottom-up, applying ``fn`` to a shallow copy of
        every node after its children have been transformed."""
        new_children = [c.map_nodes(fn) for c in self.children]
        clone = Node(self.label, self.kind, new_children, self.span, dict(self.attrs))
        return fn(clone)

    def filter_subtrees(self, keep: Callable[["Node"], bool]) -> Optional["Node"]:
        """Drop every subtree whose root fails ``keep``.

        Returns ``None`` when the root itself is dropped.
        """
        if not keep(self):
            return None
        kept = []
        for c in self.children:
            fc = c.filter_subtrees(keep)
            if fc is not None:
                kept.append(fc)
        return Node(self.label, self.kind, kept, self.span, dict(self.attrs))

    # -- dunder -----------------------------------------------------------
    def __repr__(self) -> str:
        return f"Node({self.label!r}, kind={self.kind!r}, children={len(self.children)})"

    def __eq__(self, other: object) -> bool:
        """Structural equality on (label, kind, children); ignores span/attrs."""
        if not isinstance(other, Node):
            return NotImplemented
        # Iterative pairwise comparison to avoid recursion limits.
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a.label != b.label or a.kind != b.kind or len(a.children) != len(b.children):
                return False
            stack.extend(zip(a.children, b.children))
        return True

    def __hash__(self) -> int:  # pragma: no cover - nodes are mutable
        return id(self)

    def pretty(self, indent: int = 0, max_depth: int = 50) -> str:
        """Human-readable indented dump (for debugging and docs)."""
        lines: list[str] = []
        stack: list[tuple[Node, int]] = [(self, indent)]
        while stack:
            node, d = stack.pop()
            loc = f"  @{node.span.file}:{node.span.line_start}" if node.span else ""
            lines.append("  " * d + f"{node.kind}:{node.label}{loc}")
            if d - indent < max_depth:
                for c in reversed(node.children):
                    stack.append((c, d + 1))
        return "\n".join(lines)
