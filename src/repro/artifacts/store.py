"""Generic content-addressed artifact layer shared by every persistent store.

Every persistent store needs the same durability recipe: ``SVALEDB``
container files under one root, ``schema``/``keyspec`` version stamps that
invalidate stale data, atomic temp-file + ``os.replace`` writes, strict
reads for tooling and lenient reads (count + treat-as-empty) on the hot
path. This module holds that recipe in one place so the concrete stores —
the TED memo (:mod:`repro.cache.store`), per-unit index artifacts
(:mod:`repro.workflow.unitstore`) and run-ledger snapshots
(:mod:`repro.obs.ledger`) — are thin namespaces over it.

Layout contract (pinned in DESIGN.md §"Artifact store key contract")
--------------------------------------------------------------------
Every artifact file lives directly under the store root and is named
``<namespace>-<stem>.svc``; the namespace prefix is what lets one root hold
several stores side by side (``silvervale cache stats`` enumerates them via
:func:`scan_namespaces`). Each file is a ``SVALEDB`` container whose payload
is a dict carrying at least ``schema`` and ``keyspec``; a mismatch in
either — or a foreign/corrupt file — invalidates the artifact.

Two shapes cover every store in the tree:

* :class:`ShardMapStore` — many small ``key → value`` entries bucketed into
  up to 256 shard files by the first two hex digits of the key, with
  in-memory pending buffers and read-merge-replace flushes (the TED memo);
* :class:`BlobStore` — one file per key holding a single payload value
  (unit artifacts, run-ledger snapshots).
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Iterator, Optional

from repro import obs
from repro.serde.container import read_blob, write_blob
from repro.util.errors import SerdeError

#: Container suffix shared by every artifact namespace.
SUFFIX = ".svc"


def _namespaced_files(root: Path) -> Iterator[tuple[str, Path]]:
    """``(namespace, path)`` of every ``<ns>-<stem>.svc`` file under ``root``;
    files without a ``<ns>-`` prefix are skipped (nothing in the tree
    writes them)."""
    if not root.is_dir():
        return
    for p in sorted(root.glob(f"*{SUFFIX}")):
        ns, sep, _stem = p.name[: -len(SUFFIX)].partition("-")
        if sep and ns:
            yield ns, p


def scan_namespaces(root: str | Path) -> dict[str, dict]:
    """Group the ``*.svc`` files under ``root`` by namespace prefix.

    Returns ``{namespace: {"files": n, "bytes": b}}`` — the raw enumeration
    ``silvervale cache stats`` builds on.
    """
    out: dict[str, dict] = {}
    for ns, p in _namespaced_files(Path(root)):
        rec = out.setdefault(ns, {"files": 0, "bytes": 0})
        rec["files"] += 1
        rec["bytes"] += p.stat().st_size
    return out


def clear_namespaces(root: str | Path) -> int:
    """Delete every file :func:`scan_namespaces` reports, whether or not a
    store still owns its namespace; returns the number removed."""
    removed = 0
    for _ns, p in _namespaced_files(Path(root)):
        p.unlink(missing_ok=True)
        removed += 1
    return removed


class ArtifactStore:
    """Base store: one namespace of versioned container files under a root.

    Subclasses pin the namespace and version stamps as class attributes;
    ``DESCRIPTION``/``KIND`` parametrise the strict-read error messages so
    each store keeps its established wording.
    """

    NAMESPACE = "artifact"
    SCHEMA = "repro.artifact/v1"
    KEY_SPEC = "artifact:v1"
    #: Human name used in the strict "not a ..." error.
    DESCRIPTION = "artifact file"
    #: Short noun used in schema/keyspec mismatch errors.
    KIND = "artifact"
    #: obs counter bumped when a lenient read drops an invalid file.
    INVALID_COUNTER: Optional[str] = None

    def __init__(self, root: str | Path, keyspec: Optional[str] = None):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.keyspec = keyspec or self.KEY_SPEC

    # -- layout ------------------------------------------------------------

    def file_path(self, stem: str) -> Path:
        return self.root / f"{self.NAMESPACE}-{stem}{SUFFIX}"

    def stems_on_disk(self, pattern: str = "*") -> list[str]:
        prefix = f"{self.NAMESPACE}-"
        out = []
        for p in sorted(self.root.glob(f"{prefix}{pattern}{SUFFIX}")):
            out.append(p.name[len(prefix) : -len(SUFFIX)])
        return out

    # -- payload validation / IO -------------------------------------------

    def check_payload(self, path: Path, payload: Any) -> dict:
        """Strict validation of one container payload against this store's
        version stamps; raises :class:`SerdeError` with a clear message."""
        if not isinstance(payload, dict) or "schema" not in payload:
            raise SerdeError(f"{path}: not a {self.DESCRIPTION}")
        if payload.get("schema") != self.SCHEMA:
            raise SerdeError(
                f"{path}: {self.KIND} schema {payload.get('schema')!r} != {self.SCHEMA!r}"
            )
        if payload.get("keyspec") != self.keyspec:
            raise SerdeError(
                f"{path}: {self.KIND} keyspec {payload.get('keyspec')!r} != {self.keyspec!r}"
            )
        return payload

    def write_payload(self, stem: str, payload: dict) -> Path:
        """Atomically write one artifact (temp file + ``os.replace``)."""
        path = self.file_path(stem)
        write_blob(path, payload, atomic=True)
        return path

    def _count_invalid(self) -> None:
        if self.INVALID_COUNTER:
            obs.add(self.INVALID_COUNTER)


class ShardMapStore(ArtifactStore):
    """Many ``key → value`` entries sharded by the key's first two hex digits.

    Writes are buffered in ``_pending`` and flushed with read-merge-replace:
    the shard is re-read (picking up entries other processes flushed
    meanwhile), merged, and atomically replaced. Concurrent writers can lose
    each other's *entries* (last merge wins — it is a cache) but can never
    corrupt a shard.
    """

    def __init__(self, root: str | Path, keyspec: Optional[str] = None):
        super().__init__(root, keyspec)
        #: shard id -> entries loaded from disk (lenient reads)
        self._loaded: dict[str, dict[str, Any]] = {}
        #: shard id -> entries recorded this run, not yet flushed
        self._pending: dict[str, dict[str, Any]] = {}

    # -- paths -------------------------------------------------------------

    @staticmethod
    def shard_of(key: str) -> str:
        return key[:2]

    def shard_path(self, shard: str) -> Path:
        return self.file_path(shard)

    def _shard_ids_on_disk(self) -> list[str]:
        return self.stems_on_disk("??")

    # -- reading -----------------------------------------------------------

    def read_shard(self, shard: str) -> dict[str, Any]:
        """Entries of one shard file, *strict*: a corrupt or foreign file, a
        container-version bump, or a schema/keyspec mismatch raises a clear
        :class:`SerdeError` instead of returning partial data.
        """
        path = self.shard_path(shard)
        payload = read_blob(path)  # raises SerdeError on foreign/corrupt
        self.check_payload(path, payload)
        entries = payload.get("entries")
        if not isinstance(entries, dict):
            raise SerdeError(f"{path}: malformed {self.KIND} entries")
        return entries

    def _load(self, shard: str) -> dict[str, Any]:
        """Lenient shard load used on the hot path: anything unreadable
        (corrupt, foreign, stale schema) counts as ``INVALID_COUNTER`` and
        behaves as an empty shard — callers recompute and the next flush
        rewrites the shard in the current format.
        """
        cached = self._loaded.get(shard)
        if cached is not None:
            return cached
        entries: dict[str, Any] = {}
        if self.shard_path(shard).exists():
            try:
                entries = self.read_shard(shard)
            except SerdeError:
                self._count_invalid()
        self._loaded[shard] = entries
        return entries

    def get(self, key: str) -> Optional[Any]:
        """Stored value for ``key``, or ``None`` on a miss."""
        shard = self.shard_of(key)
        pending = self._pending.get(shard)
        if pending is not None and key in pending:
            return pending[key]
        return self._load(shard).get(key)

    # -- writing -----------------------------------------------------------

    def put(self, key: str, value: Any) -> None:
        """Buffer one entry for the next :meth:`flush`."""
        self._pending.setdefault(self.shard_of(key), {})[key] = value

    def flush(self) -> int:
        """Write pending entries to disk; returns the number written."""
        written = 0
        for shard, pending in sorted(self._pending.items()):
            self._loaded.pop(shard, None)  # re-read: another writer may have run
            entries = dict(self._load(shard))
            entries.update(pending)
            payload = {"schema": self.SCHEMA, "keyspec": self.keyspec, "entries": entries}
            self.write_payload(shard, payload)
            self._loaded[shard] = entries
            written += len(pending)
        self._pending.clear()
        return written

    def drop_loaded(self) -> None:
        """Forget in-memory shard snapshots so the next lookup re-reads disk
        (used after other processes may have flushed new entries)."""
        self._loaded.clear()

    def preload(self) -> int:
        """Read every shard on disk into the in-memory snapshot (lenient).

        The hot-tier warm-up path for long-lived processes (``silvervale
        serve``): after a preload every :meth:`get` is a pure dict lookup —
        no first-request disk read, no cold-shard latency spike. Returns the
        number of entries now resident. Invalid shards count toward
        ``INVALID_COUNTER`` and load as empty, exactly like the lazy path.
        """
        total = 0
        for shard in self._shard_ids_on_disk():
            total += len(self._load(shard))
        return total

    # -- maintenance -------------------------------------------------------

    def __len__(self) -> int:
        ids = set(self._shard_ids_on_disk()) | set(self._pending)
        total = 0
        for shard in ids:
            keys = set(self._load(shard))
            keys.update(self._pending.get(shard, ()))
            total += len(keys)
        return total

    def stats(self) -> dict:
        """Store summary for the CLI (strict per shard: unreadable shards
        are reported, not hidden)."""
        shards = self._shard_ids_on_disk()
        entries = 0
        size_bytes = 0
        invalid: list[str] = []
        for shard in shards:
            size_bytes += self.shard_path(shard).stat().st_size
            try:
                entries += len(self.read_shard(shard))
            except SerdeError:
                invalid.append(shard)
        return {
            "root": str(self.root),
            "schema": self.SCHEMA,
            "keyspec": self.keyspec,
            "shards": len(shards),
            "entries": entries,
            "bytes": size_bytes,
            "invalid_shards": invalid,
        }

    def clear(self) -> int:
        """Delete every shard file; returns the number removed."""
        removed = 0
        for shard in self._shard_ids_on_disk():
            self.shard_path(shard).unlink(missing_ok=True)
            removed += 1
        self._loaded.clear()
        self._pending.clear()
        return removed


class BlobStore(ArtifactStore):
    """One artifact file per key holding a single payload value.

    The payload is ``{"schema", "keyspec", KEY_FIELD: key, VALUE_FIELD:
    value}``; storing the key inside the payload lets a load reject a file
    that was renamed or truncated into the wrong identity. Loads are
    lenient (anything invalid counts and behaves as missing); saves are
    atomic.
    """

    KEY_FIELD = "key"
    VALUE_FIELD = "value"
    #: obs counter bumped on every successful save (None = uncounted).
    SAVED_COUNTER: Optional[str] = None

    def path_for(self, key: str) -> Path:
        return self.file_path(key)

    def _valid_value(self, value: Any) -> bool:
        return isinstance(value, dict)

    # -- reading -----------------------------------------------------------

    def load(self, key: str) -> dict:
        """Stored value for ``key``, lenient.

        A missing file is simply absent (empty dict). A corrupt or foreign
        file, a schema/keyspec mismatch, a key mismatch or a malformed
        value count as ``INVALID_COUNTER`` and also behave as empty — the
        caller recomputes and the next save rewrites the artifact in the
        current format.
        """
        path = self.path_for(key)
        if not path.exists():
            return {}
        try:
            payload = read_blob(path)
        except SerdeError:
            self._count_invalid()
            return {}
        if (
            not isinstance(payload, dict)
            or payload.get("schema") != self.SCHEMA
            or payload.get("keyspec") != self.keyspec
            or payload.get(self.KEY_FIELD) != key
            or not self._valid_value(payload.get(self.VALUE_FIELD))
        ):
            self._count_invalid()
            return {}
        return payload[self.VALUE_FIELD]

    # -- writing -----------------------------------------------------------

    def save(self, key: str, value: Any) -> Path:
        """Atomically write one artifact; returns its path."""
        payload = {
            "schema": self.SCHEMA,
            "keyspec": self.keyspec,
            self.KEY_FIELD: key,
            self.VALUE_FIELD: value,
        }
        path = self.write_payload(key, payload)
        if self.SAVED_COUNTER:
            obs.add(self.SAVED_COUNTER)
        return path

    def delete(self, key: str) -> None:
        """Remove one artifact (missing is fine)."""
        self.path_for(key).unlink(missing_ok=True)

    # -- maintenance -------------------------------------------------------

    def keys(self) -> list[str]:
        """Keys that currently have an artifact file on disk."""
        return self.stems_on_disk()

    def stats(self) -> dict:
        """Store summary for the CLI (lenient: invalid files are counted)."""
        files = self.keys()
        size_bytes = 0
        entries = 0
        invalid: list[str] = []
        for key in files:
            size_bytes += self.path_for(key).stat().st_size
            try:
                payload = read_blob(self.path_for(key))
                self.check_payload(self.path_for(key), payload)
                if payload.get(self.KEY_FIELD) != key or not self._valid_value(
                    payload.get(self.VALUE_FIELD)
                ):
                    raise SerdeError(f"{self.path_for(key)}: malformed {self.KIND}")
            except SerdeError:
                invalid.append(key)
            else:
                entries += 1
        return {
            "root": str(self.root),
            "schema": self.SCHEMA,
            "keyspec": self.keyspec,
            "files": len(files),
            "entries": entries,
            "bytes": size_bytes,
            "invalid": invalid,
        }

    def clear(self) -> int:
        """Delete every artifact file of this namespace; returns the count."""
        removed = 0
        for key in self.keys():
            self.path_for(key).unlink(missing_ok=True)
            removed += 1
        return removed
