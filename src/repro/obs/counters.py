"""Counters, gauges and histogram observations: the metrics entry points.

Counters accumulate (cache hits, tokens lexed, DP cells visited); gauges
record a last-written value (cache size); histograms record latency
distributions (see :mod:`repro.obs.hist`). All are collector-scoped: they
reset naturally when a new :func:`repro.obs.collect` window opens, which is
the reset semantics tests and CLI runs rely on.

All entry points are near-no-ops while no collector is installed; hot loops
that would otherwise pay a function call per iteration should accumulate
into a local and flush once (see ``distance/zs_cross.py``).
"""

from __future__ import annotations

from typing import Optional

from repro.obs.hist import Histogram
from repro.obs.spans import _ACTIVE, current_collector, enabled  # noqa: F401


def add(name: str, value: float = 1.0) -> None:
    """Increment counter ``name`` by ``value`` (no-op when not collecting)."""
    c = current_collector()
    if c is not None:
        c.add(name, value)


def gauge(name: str, value: float) -> None:
    """Set gauge ``name`` to ``value`` (no-op when not collecting)."""
    c = current_collector()
    if c is not None:
        c.gauge(name, value)


def observe(name: str, value: float) -> None:
    """Record ``value`` into histogram ``name`` (no-op when not collecting)."""
    c = current_collector()
    if c is not None:
        c.observe(name, value)


def get(name: str) -> float:
    """Current value of *counter* ``name`` in the active collector.

    Counter-only by contract: gauges and histograms live in separate
    namespaces, so asking ``get()`` for a gauge name returns 0.0 exactly
    like any unknown counter — use :func:`get_gauge` /
    :func:`get_histogram` for those. Returns 0.0 when no collector is
    installed.
    """
    c = current_collector()
    if c is None:
        return 0.0
    return c.counters.get(name, 0.0)


def get_gauge(name: str, default: float = 0.0) -> float:
    """Current value of gauge ``name`` (``default`` when unset/not collecting)."""
    c = current_collector()
    if c is None:
        return default
    return c.gauges.get(name, default)


def get_histogram(name: str) -> Optional[Histogram]:
    """The active collector's histogram ``name``, or ``None``."""
    c = current_collector()
    if c is None:
        return None
    return c.hists.get(name)
