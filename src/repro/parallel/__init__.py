"""The distance engine's fork pool (one pipe per worker, retries, chaos hook)."""

from repro.parallel.pool import ChaosError, ChunkedPool, PoolResult, sigterm_as_interrupt

__all__ = [
    "ChaosError",
    "ChunkedPool",
    "PoolResult",
    "sigterm_as_interrupt",
]
