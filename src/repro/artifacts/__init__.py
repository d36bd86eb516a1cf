"""Generic content-addressed artifact store (namespaces over one layout)."""

from repro.artifacts.store import (
    ArtifactStore,
    BlobStore,
    ShardMapStore,
    clear_namespaces,
    scan_namespaces,
)

__all__ = [
    "ArtifactStore",
    "BlobStore",
    "ShardMapStore",
    "clear_namespaces",
    "scan_namespaces",
]
