"""Hierarchical spans: the tracing half of the observability layer.

Design constraints (ISSUE 1 / ROADMAP scaling work):

* **Near-zero cost when disabled.** Every entry point checks a module-level
  integer before touching contextvars or allocating; ``span()`` returns a
  shared no-op context manager and ``traced`` functions call straight
  through. The benchmark suite must not regress when nobody is collecting.
* **Thread-safe nesting.** The current (collector, parent-index) pair lives
  in a :class:`contextvars.ContextVar`, so spans nest correctly across
  ``asyncio`` tasks and copied contexts; worker threads that start with an
  empty context fall back to the installed collector's root so their spans
  are still captured (as top-level spans of that thread).
* **Stable stage names.** Span names emitted by the pipeline (``index.cpp``,
  ``parse``, ``sema``, ``lower``, ``ted`` …) are a public contract for the
  benchmark harness — see DESIGN.md §"Span taxonomy".
"""

from __future__ import annotations

import contextvars
import functools
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional, TypeVar

from repro.obs.hist import Histogram

F = TypeVar("F", bound=Callable)


@dataclass
class SpanRecord:
    """One finished (or in-flight) span."""

    name: str
    index: int
    parent: int  # index of the parent record, -1 for a root span
    start: float  # seconds since the collector's epoch
    end: float = 0.0
    thread: int = 0
    attrs: dict[str, Any] = field(default_factory=dict)
    #: originating process; 0 means "the collector's own process". Only
    #: spans adopted from pool workers carry a foreign pid — the trace
    #: export renders them as separate pid lanes.
    pid: int = 0

    @property
    def duration(self) -> float:
        return max(self.end - self.start, 0.0)


class Collector:
    """Accumulates spans, counters and gauges for one collection window."""

    def __init__(self) -> None:
        self.spans: list[SpanRecord] = []
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.hists: dict[str, Histogram] = {}
        self._lock = threading.Lock()
        #: perf_counter value all span timestamps are relative to.
        self.epoch = time.perf_counter()
        #: wall-clock time of the epoch (for trace metadata).
        self.epoch_wall = time.time()
        self.pid = os.getpid()

    # -- spans ----------------------------------------------------------

    def _open_span(self, name: str, parent: int, attrs: dict[str, Any]) -> SpanRecord:
        rec = SpanRecord(
            name=name,
            index=0,
            parent=parent,
            start=time.perf_counter() - self.epoch,
            thread=threading.get_ident(),
            attrs=attrs,
        )
        with self._lock:
            rec.index = len(self.spans)
            self.spans.append(rec)
        return rec

    def _close_span(self, rec: SpanRecord) -> None:
        rec.end = time.perf_counter() - self.epoch
        # every span name doubles as a latency histogram, so percentiles
        # per stage fall out of tracing with no extra call sites
        self.observe(rec.name, rec.duration)

    # -- counters / gauges / histograms --------------------------------

    def add(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        with self._lock:
            self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            h = self.hists.get(name)
            if h is None:
                h = self.hists[name] = Histogram()
            h.observe(value)

    def export_spans(self, limit: Optional[int] = None) -> tuple[list[tuple], int]:
        """Span log as transport tuples for :meth:`adopt_chunk`.

        Returns ``(tuples, dropped)``: when ``limit`` caps the log, the
        *earliest* spans are kept (their parents are guaranteed in-range
        because parents precede children in the log) and the overflow count
        is reported so the parent can surface it as a counter.
        """
        recs = self.spans
        dropped = 0
        if limit is not None and len(recs) > limit:
            dropped = len(recs) - limit
            recs = recs[:limit]
        out = [(r.name, r.parent, r.start, r.end, r.thread, dict(r.attrs)) for r in recs]
        return out, dropped

    def export_hists(self) -> dict[str, dict]:
        """Histograms as transport objects for :meth:`adopt_chunk`."""
        return {name: h.to_obj() for name, h in self.hists.items()}

    # -- worker-payload adoption ----------------------------------------

    def adopt_chunk(
        self,
        spans: list[tuple],
        hists: dict[str, dict],
        pid: int,
        epoch_wall: float,
        parent: int = -1,
    ) -> None:
        """Merge one pool worker's serialized collection window.

        ``spans`` is the worker's span log in index order as
        ``(name, parent, start, end, thread, attrs)`` tuples (parent links
        are positional within the chunk, -1 for chunk roots); ``hists`` maps
        name -> :meth:`Histogram.to_obj`. Worker timestamps are relative to
        the worker collector's epoch, so they are re-anchored onto this
        collector's timeline via the wall-clock epoch difference — same
        machine, same clock, so lanes line up in the trace viewer. Chunk
        roots are re-parented under ``parent`` (the pool span), keeping the
        aggregate tree navigable.
        """
        shift = epoch_wall - self.epoch_wall
        with self._lock:
            base = len(self.spans)
            for off, (name, rel_parent, start, end, thread, attrs) in enumerate(spans):
                self.spans.append(
                    SpanRecord(
                        name=name,
                        index=base + off,
                        parent=base + rel_parent if rel_parent >= 0 else parent,
                        start=start + shift,
                        end=end + shift,
                        thread=thread,
                        attrs=attrs or {},
                        pid=pid,
                    )
                )
            for name, obj in hists.items():
                h = self.hists.get(name)
                if h is None:
                    h = self.hists[name] = Histogram()
                h.merge(Histogram.from_obj(obj))

    # -- queries --------------------------------------------------------

    def roots(self) -> list[SpanRecord]:
        return [r for r in self.spans if r.parent < 0]


# ---------------------------------------------------------------------------
# Collector installation
# ---------------------------------------------------------------------------

#: (collector, parent span index) for the current context; ``None`` when the
#: context has never entered a collection window.
_STATE: contextvars.ContextVar[Optional[tuple[Collector, int]]] = contextvars.ContextVar(
    "repro_obs_state", default=None
)

#: Count of installed collectors — the fast "is anyone listening" flag that
#: every hot-path check reads before doing any real work.
_ACTIVE: int = 0

#: Fallback collector for threads whose context never saw the install.
_GLOBAL: Optional[Collector] = None


def enabled() -> bool:
    """True when at least one collector is installed (spans are recorded)."""
    return _ACTIVE > 0


def _current_state() -> Optional[tuple[Collector, int]]:
    st = _STATE.get()
    if st is None and _GLOBAL is not None:
        return (_GLOBAL, -1)
    return st


def current_collector() -> Optional[Collector]:
    """The collector this context reports into, if any."""
    if not _ACTIVE:
        return None
    st = _current_state()
    return st[0] if st is not None else None


@contextmanager
def collect() -> Iterator[Collector]:
    """Install a fresh :class:`Collector` for the duration of the block.

    Nested ``collect()`` blocks shadow the outer collector (spans and
    counters go to the innermost one); the outer collector resumes when the
    inner block exits. Each block starts from a clean slate — this is the
    reset mechanism between tests and between CLI runs.
    """
    global _ACTIVE, _GLOBAL
    c = Collector()
    token = _STATE.set((c, -1))
    prev_global = _GLOBAL
    _GLOBAL = c
    _ACTIVE += 1
    try:
        yield c
    finally:
        _ACTIVE -= 1
        _GLOBAL = prev_global
        _STATE.reset(token)


# ---------------------------------------------------------------------------
# The span context manager
# ---------------------------------------------------------------------------


class _NoopSpan:
    """Shared do-nothing span handed out while no collector is installed."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None

    def set(self, **attrs) -> None:
        return None

    @property
    def index(self) -> int:
        return -1


_NOOP = _NoopSpan()


class _Span:
    __slots__ = ("_name", "_attrs", "_rec", "_token", "_collector")

    def __init__(self, name: str, attrs: dict[str, Any]):
        self._name = name
        self._attrs = attrs
        self._rec: Optional[SpanRecord] = None
        self._token = None
        self._collector: Optional[Collector] = None

    def __enter__(self) -> "_Span":
        st = _current_state()
        if st is None:
            return self
        collector, parent = st
        self._collector = collector
        self._rec = collector._open_span(self._name, parent, self._attrs)
        self._token = _STATE.set((collector, self._rec.index))
        return self

    def __exit__(self, *exc) -> None:
        if self._rec is None:
            return
        assert self._collector is not None
        self._collector._close_span(self._rec)
        if self._token is not None:
            _STATE.reset(self._token)

    def set(self, **attrs) -> None:
        """Attach attributes to the live span (no-op when not recording)."""
        if self._rec is not None:
            self._rec.attrs.update(attrs)

    @property
    def index(self) -> int:
        """Record index of the live span (-1 before entry / not recording);
        lets callers re-parent adopted worker spans under this span."""
        return self._rec.index if self._rec is not None else -1


def span(name: str, **attrs):
    """Open a span named ``name`` for the duration of a ``with`` block.

    Compiles to a shared no-op when no collector is installed — safe to
    leave in hot paths.
    """
    if not _ACTIVE:
        return _NOOP
    return _Span(name, attrs)


def traced(name: Optional[str] = None) -> Callable[[F], F]:
    """Decorator form of :func:`span` (span name defaults to the qualname)."""

    def deco(fn: F) -> F:
        label = name or fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not _ACTIVE:
                return fn(*args, **kwargs)
            with span(label):
                return fn(*args, **kwargs)

        return wrapper  # type: ignore[return-value]

    return deco
