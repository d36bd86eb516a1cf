"""Divergence-as-a-service: the ``silvervale serve`` daemon.

Layers, transport-in to engine-out — see DESIGN.md §"Serve contract" for
the invariants (bit-identity with the CLI, hot-tier invalidation rules,
the batching window):

* :mod:`repro.serve.http` — minimal HTTP/1.1 framing over asyncio streams
* :mod:`repro.serve.app` — endpoint handlers (same computations as the CLI)
* :mod:`repro.serve.state` — shared in-memory hot tier over ``repro/artifacts``
* :mod:`repro.serve.batcher` — demand coalescing into single engine waves
* :mod:`repro.serve.daemon` — server lifecycle, engine thread, shutdown
"""
