"""Checksummed artifact store: crash-safe I/O for persistent state.

Every artifact the simulator persists — sweep journals, fuzz
reproducer specs, serve records — goes through
this layer, which provides:

* **atomic, durable writes** (:mod:`repro.store.atomic`) — one shared
  write-to-temp + fsync + :func:`os.replace` + directory-fsync
  implementation, so a crash at any instant leaves either the complete
  old file or the complete new one;
* **integrity framing** (:mod:`repro.store.integrity`) — a
  length/SHA-256/trailer envelope for JSON artifacts and per-line
  digests for append-style journals, so any single corrupted byte is
  *detected* at load time; :class:`~repro.store.integrity.CheckedLog`
  is the one implementation of a headed, append-only log of such lines;
* **a typed error taxonomy** (:mod:`repro.store.errors`) —
  :class:`TruncatedArtifact` / :class:`DigestMismatch` /
  :class:`SchemaMismatch` / :class:`MalformedRecord` under
  :class:`ArtifactError`, so callers can quarantine corrupt files
  (:func:`quarantine_path`) instead of crashing sweeps, and can tell
  corruption from schema drift;
* **fsck** (:mod:`repro.store.fsck`, ``python -m repro.store fsck``) —
  scan a tree, verify every artifact, salvage journals, quarantine or
  delete the unrecoverable;
* **corruption injection** (:mod:`repro.store.inject`) — the on-disk
  analogue of :mod:`repro.audit.inject`, used by the corruption-matrix
  tests to prove all of the above actually fires.

Like the paper's map-table checkpoints that make PRI recoverable,
persistent simulator state carries integrity metadata plus a repair
path — so the resume/reproducer machinery the long sweeps depend on
fails loudly and locally, never silently.
"""

from repro.store.atomic import (
    FSYNC_DIR_STATS,
    FsyncDirStats,
    TMP_SUFFIX,
    add_fsync_dir_hook,
    add_io_observer,
    atomic_write_bytes,
    atomic_write_text,
    atomic_writer,
    create_exclusive_bytes,
    durable_replace,
    fsync_dir,
    fsync_file,
    notify_io,
    quarantine_path,
    remove_file,
    remove_fsync_dir_hook,
    remove_io_observer,
    set_strict_fsync_dir,
    strict_fsync_dir,
)
from repro.store.errors import (
    ArtifactError,
    DigestMismatch,
    MalformedRecord,
    SchemaMismatch,
    TruncatedArtifact,
)
from repro.store.fsck import Finding, FsckReport, fsck_tree
from repro.store.inject import CORRUPTIONS, Corruption, corrupt
from repro.store.integrity import (
    ArtifactMeta,
    ENVELOPE_MAGIC,
    ENVELOPE_VERSION,
    append_checked_line,
    checked_line,
    envelope_bytes,
    read_checked_lines,
    read_json_artifact,
    sha256_hex,
    verify_envelope,
    write_json_artifact,
)

__all__ = [
    "ArtifactError",
    "ArtifactMeta",
    "CORRUPTIONS",
    "Corruption",
    "DigestMismatch",
    "ENVELOPE_MAGIC",
    "ENVELOPE_VERSION",
    "FSYNC_DIR_STATS",
    "Finding",
    "FsckReport",
    "FsyncDirStats",
    "MalformedRecord",
    "SchemaMismatch",
    "TMP_SUFFIX",
    "TruncatedArtifact",
    "add_fsync_dir_hook",
    "add_io_observer",
    "append_checked_line",
    "atomic_write_bytes",
    "atomic_write_text",
    "atomic_writer",
    "checked_line",
    "corrupt",
    "create_exclusive_bytes",
    "durable_replace",
    "envelope_bytes",
    "fsck_tree",
    "fsync_dir",
    "fsync_file",
    "notify_io",
    "quarantine_path",
    "read_checked_lines",
    "read_json_artifact",
    "remove_file",
    "remove_fsync_dir_hook",
    "remove_io_observer",
    "set_strict_fsync_dir",
    "sha256_hex",
    "strict_fsync_dir",
    "verify_envelope",
    "write_json_artifact",
]
