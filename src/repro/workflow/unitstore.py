"""Per-unit index artifacts: the incremental-build half of the Codebase DB.

Each successfully indexed translation unit is persisted as one
content-addressed artifact in the shared artifact root (namespace
``unit``, next to the ``ted`` cache shards and ``obs`` run-ledger
snapshots). The key fingerprints everything that can change the unit's
representations:

* the key spec version (bump on any indexer output change),
* the model spec (app, model, lang, dialect, openmp, entry, defines),
* the frontend mode (``recover``) and whether a coverage run rides along,
* the unit identity (role, main path) and the main file's content hash,
* the filesystem *layout* (sorted path names) — include resolution can
  pick a different file when one appears or disappears, even if every
  previously used dependency is unchanged.

Dependency *contents* are validated at load time against hashes stored
in the artifact payload (a depfile, in Make terms): a changed header is
a plain miss, never a stale hit. Corrupt or foreign artifacts are
reported as ``index/artifact-invalid`` warnings and treated as misses.
"""

from __future__ import annotations

import hashlib
from typing import Optional

from repro import diag
from repro.artifacts import BlobStore
from repro.lang.source import VirtualFS
from repro.workflow.codebase import IndexedUnit, ModelSpec
from repro.workflow.codebasedb import _unit_from_obj, _unit_to_obj

SCHEMA = "repro.index/v1"
KEY_SPEC = "unit:frontend:v4"


def _text_hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def fs_layout_digest(fs: VirtualFS) -> str:
    """Digest of the file *names* (not contents) visible to the frontends."""
    h = hashlib.sha256()
    for path in sorted(fs.files):
        h.update(path.encode())
        h.update(b"\x00")
    return h.hexdigest()


def unit_key(
    spec: ModelSpec,
    fs: VirtualFS,
    role: str,
    path: str,
    recover: bool,
    coverage: bool,
) -> Optional[str]:
    """Content-addressed artifact key for one unit, or ``None`` when the
    unit's main file is absent (nothing to fingerprint — index normally
    and let the frontend report the failure)."""
    text = fs.files.get(path)
    if text is None:
        return None
    h = hashlib.sha256()
    parts = [
        KEY_SPEC,
        spec.app,
        spec.model,
        spec.lang,
        spec.dialect,
        "1" if spec.openmp else "0",
        spec.entry or "",
        "1" if recover else "0",
        "1" if coverage else "0",
        role,
        path,
        _text_hash(text),
        fs_layout_digest(fs),
    ]
    for k in sorted(spec.defines):
        parts.append(f"{k}={spec.defines[k]}")
    for part in parts:
        h.update(part.encode())
        h.update(b"\x00")
    return h.hexdigest()[:32]


class UnitArtifactStore(BlobStore):
    """One ``unit-<key>.svc`` artifact per indexed translation unit."""

    NAMESPACE = "unit"
    SCHEMA = SCHEMA
    KEY_SPEC = KEY_SPEC
    DESCRIPTION = "unit artifact"
    KIND = "unit artifact"
    INVALID_COUNTER = "index.unit.invalid"
    SAVED_COUNTER = "index.unit.saved"


def save_unit(
    store: UnitArtifactStore,
    key: str,
    unit: IndexedUnit,
    covrec: Optional[dict],
    fs: VirtualFS,
) -> None:
    """Persist one pristine unit (plus its coverage record and depfile)."""
    deps = {
        p: _text_hash(fs.files[p])
        for p in [unit.path, *unit.deps]
        if p in fs.files
    }
    store.save(key, {"unit": _unit_to_obj(unit), "deps": deps, "cov": covrec})


def load_unit(
    store: UnitArtifactStore, key: str, fs: VirtualFS
) -> Optional[tuple[IndexedUnit, Optional[dict]]]:
    """Load one unit artifact; ``None`` on any kind of miss.

    A missing file is a silent miss; a changed dependency is a silent
    miss (the depfile caught it); a corrupt/foreign/misshapen artifact is
    a miss *with* an ``index/artifact-invalid`` warning, counted once as
    ``index.unit.invalid``, so operators know the store needs a
    ``silvervale cache clear``.
    """
    if not store.path_for(key).exists():
        return None
    name = store.path_for(key).name
    value = store.load(key)  # counts an unreadable file itself
    if not value:
        diag.warning("index/artifact-invalid", f"unreadable unit artifact {name}; re-indexing")
        return None
    deps = value.get("deps")
    if not isinstance(deps, dict):
        store._count_invalid()
        diag.warning("index/artifact-invalid", f"unit artifact {name} has no depfile; re-indexing")
        return None
    for p, digest in deps.items():
        text = fs.files.get(p)
        if text is None or _text_hash(text) != digest:
            return None  # a dependency changed: plain miss
    try:
        unit = _unit_from_obj(value["unit"])
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        store._count_invalid()
        diag.warning("index/artifact-invalid", f"malformed unit artifact {name} ({e}); re-indexing")
        return None
    cov = value.get("cov")
    return unit, cov if isinstance(cov, dict) else None
