"""Atomic partial-result checkpoints for long distance runs.

A production-scale compare step is an O(n²) cartesian product of divergence
evaluations — a multi-minute-to-multi-hour run on real corpora. This store
lets the distance engine persist the completed slice of that work so a run
killed mid-flight (OOM, SIGTERM, Ctrl-C, a lost node) resumes where it
stopped instead of starting over.

Checkpoint format + invalidation contract (pinned in DESIGN.md)
---------------------------------------------------------------
One checkpoint file per *run*, named ``ckpt-<run-key>.svc`` under the
checkpoint root — the ``ckpt`` namespace of the generic artifact layer
(:class:`repro.artifacts.BlobStore`). The run key is a SHA-256 digest over
the keyspec and the ordered task-key list of the workload
(:func:`run_key_for`); each task key embeds the structural-hash
fingerprints of the compared codebases — the same hashes that key the TED
cache — so any change to the compared trees, the metric spec, the coverage
mask or the task list changes the run key and the stale checkpoint is
simply never found. The payload is a standard ``SVALEDB`` container::

    {"schema": "repro.ckpt/v1", "keyspec": KEY_SPEC,
     "run": <run-key>, "entries": {task_key: value}}

``entries`` holds only *completed* task values (one float per task key);
failed or degraded tasks are never checkpointed, so a resumed run retries
them. Loads are lenient: a corrupt, foreign or schema/keyspec-mismatched
file counts as ``ckpt.invalid`` and behaves as empty. Saves are atomic
(temp file + ``os.replace``), so a crash mid-save leaves the previous
checkpoint intact.
"""

from __future__ import annotations

import hashlib
from typing import Optional, Sequence

from repro.artifacts import BlobStore

#: Payload schema version; bump when the entry layout changes.
SCHEMA = "repro.ckpt/v1"

#: What the task keys cannot encode: the divergence semantics the stored
#: values were computed under. Bump to invalidate every existing checkpoint.
#: v2: one symmetric float per ``pair:`` key (v1 stored a ``pair:`` key's
#: two directions as a 2-list, next to directed ``dir:`` keys).
KEY_SPEC = "div:structhash:v2"


def run_key_for(keys: Sequence[str], keyspec: str = KEY_SPEC) -> str:
    """Stable identity of one workload: digest of its ordered task keys.

    Two runs share a checkpoint file iff they evaluate the same tasks over
    the same inputs in the same order — anything else hashes elsewhere.
    """
    h = hashlib.sha256()
    h.update(keyspec.encode())
    for k in keys:
        h.update(b"\x00")
        h.update(k.encode())
    return h.hexdigest()[:32]


class CheckpointStore(BlobStore):
    """Directory of per-run partial-matrix checkpoints.

    ``load``/``save``/``discard`` are the lenient-read / atomic-write /
    delete primitives of the blob artifact layer; only the naming
    (``run``/``entries`` payload fields, ``ckpt.*`` counters) is pinned
    here because it is an on-disk compatibility surface.
    """

    NAMESPACE = "ckpt"
    SCHEMA = SCHEMA
    KEY_SPEC = KEY_SPEC
    DESCRIPTION = "checkpoint file"
    KIND = "checkpoint"
    INVALID_COUNTER = "ckpt.invalid"
    SAVED_COUNTER = "ckpt.saved"
    KEY_FIELD = "run"
    VALUE_FIELD = "entries"

    def discard(self, run_key: str) -> None:
        """Remove one run's checkpoint (called after a fully successful run)."""
        self.delete(run_key)

    def run_keys(self) -> list[str]:
        """Run keys that currently have a checkpoint file on disk."""
        return self.keys()


def resolve_checkpoint_dir(
    explicit: Optional[str] = None,
    env: Optional[str] = None,
    resume: bool = False,
) -> Optional[str]:
    """Checkpoint-dir resolution shared by the CLI and harnesses:
    an explicit ``--checkpoint-dir`` beats ``$REPRO_CKPT_DIR``; when only
    ``--resume`` was given, fall back to the conventional local directory so
    interrupt + resume works with zero configuration."""
    if explicit:
        return explicit
    if env:
        return env
    if resume:
        return ".silvervale-ckpt"
    return None
