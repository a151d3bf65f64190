"""Crash-safe file replacement and quarantine.

One implementation of write-to-temp + fsync + :func:`os.replace` +
directory fsync, shared by every artifact producer (journals,
reproducers, serve records) — previously several modules each
had an ad-hoc copy, none of which fsynced, so the
"atomic" rename could still land an empty or partial file after a power
cut (the rename is durable before the data on many filesystems).

The contract: after :func:`atomic_write_bytes` (or the
:func:`atomic_writer` context) returns, a crash at *any* point leaves
either the complete new file or the complete previous one — never a
mix, never a truncation.  The temp file is created in the destination
directory (same filesystem, so ``os.replace`` is atomic) with a
``.tmp`` suffix that :mod:`repro.store.fsck` recognizes as a
concurrent-writer leftover and cleans up.

Two observability layers ride on top of the primitives:

* **I/O observers** (:func:`add_io_observer`) — every write, append,
  fsync, rename, exclusive create, unlink, and directory fsync that
  flows through this module is reported as one event dict.  This is the
  recording surface of the crash-consistency harness
  (:mod:`repro.crash`): because every durability layer funnels its disk
  traffic through these few functions, observing them yields a complete
  op log from which all reachable power-loss states can be enumerated.
* **directory-fsync accounting** (:data:`FSYNC_DIR_STATS`,
  :func:`add_fsync_dir_hook`, :func:`set_strict_fsync_dir`) — a
  directory fsync the platform refuses is normally survivable (some
  filesystems cannot fsync directories at all), but silently swallowing
  it used to make "this fs gives no rename durability" indistinguishable
  from "everything is fine".  Skips are now counted, reported to hooks,
  and fatal in strict mode, so tests and the crash harness can pin the
  count to zero on filesystems that do support it.
"""

from __future__ import annotations

import contextlib
import os
import tempfile
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Union

#: Suffix of in-flight temp files; fsck treats ``*<TMP_SUFFIX>`` as
#: abandoned writer state, safe to delete.
TMP_SUFFIX = ".tmp"


# ========================================================== I/O observers

#: Registered observers; each is called with one event dict per I/O
#: operation: ``{"op": "write|append|fsync|rename|create|unlink|
#: fsync_dir", "path": ..., ...}``.  Empty in normal operation — the
#: fast path is a single truthiness check.
_IO_OBSERVERS: List[Callable[[Dict], None]] = []


def add_io_observer(observer: Callable[[Dict], None]) -> None:
    """Register a callable to receive one event dict per I/O operation
    performed through this module (the crash harness's recorder)."""
    _IO_OBSERVERS.append(observer)


def remove_io_observer(observer: Callable[[Dict], None]) -> None:
    with contextlib.suppress(ValueError):
        _IO_OBSERVERS.remove(observer)


def io_observed() -> bool:
    """True when at least one observer is registered (producers use this
    to skip read-back work that only observers consume)."""
    return bool(_IO_OBSERVERS)


def notify_io(**event) -> None:
    """Report one I/O event to every registered observer."""
    if not _IO_OBSERVERS:
        return
    for observer in list(_IO_OBSERVERS):
        observer(event)


# ================================================ directory-fsync skips


@dataclass
class FsyncDirStats:
    """Counters for :func:`fsync_dir` outcomes since the last
    :meth:`reset` — the observable record of every directory fsync the
    platform refused (and this module used to swallow silently)."""

    attempted: int = 0
    synced: int = 0
    #: ``os.open`` on the directory failed (no O_RDONLY dirs on this OS).
    skipped_open: int = 0
    #: The fsync itself failed (directories not fsyncable on this fs).
    skipped_fsync: int = 0

    @property
    def skipped(self) -> int:
        return self.skipped_open + self.skipped_fsync

    def reset(self) -> None:
        self.attempted = 0
        self.synced = 0
        self.skipped_open = 0
        self.skipped_fsync = 0


#: Module-wide directory-fsync accounting.
FSYNC_DIR_STATS = FsyncDirStats()

#: Callables invoked as ``hook(directory, exc)`` whenever a directory
#: fsync is skipped.
_FSYNC_DIR_HOOKS: List[Callable[[str, OSError], None]] = []

_STRICT_FSYNC_DIR = False


def add_fsync_dir_hook(hook: Callable[[str, OSError], None]) -> None:
    """Register a callback fired on every skipped directory fsync."""
    _FSYNC_DIR_HOOKS.append(hook)


def remove_fsync_dir_hook(hook: Callable[[str, OSError], None]) -> None:
    with contextlib.suppress(ValueError):
        _FSYNC_DIR_HOOKS.remove(hook)


def set_strict_fsync_dir(strict: bool) -> bool:
    """Make a skipped directory fsync raise its :class:`OSError` instead
    of degrading silently.  Returns the previous setting."""
    global _STRICT_FSYNC_DIR
    previous = _STRICT_FSYNC_DIR
    _STRICT_FSYNC_DIR = strict
    return previous


@contextlib.contextmanager
def strict_fsync_dir() -> Iterator[None]:
    """Context manager form of :func:`set_strict_fsync_dir` for tests:
    within the block, a skipped directory fsync is a hard failure."""
    previous = set_strict_fsync_dir(True)
    try:
        yield
    finally:
        set_strict_fsync_dir(previous)


def _fsync_dir_skipped(directory: str, exc: OSError, stage: str) -> None:
    if stage == "open":
        FSYNC_DIR_STATS.skipped_open += 1
    else:
        FSYNC_DIR_STATS.skipped_fsync += 1
    # A skipped directory fsync forces nothing: the crash harness must
    # see it as a non-barrier, which is why the event says so.
    notify_io(op="fsync_dir", path=directory, skipped=True)
    for hook in list(_FSYNC_DIR_HOOKS):
        hook(directory, exc)
    if _STRICT_FSYNC_DIR:
        raise exc


def fsync_dir(directory: str) -> bool:
    """Flush a directory's entry table so a just-renamed file survives a
    crash.  Returns True when the directory was actually fsynced; a
    platform that cannot fsync directories yields False, counts the skip
    in :data:`FSYNC_DIR_STATS`, notifies every registered hook, and —
    under :func:`set_strict_fsync_dir` — raises the underlying
    :class:`OSError` instead."""
    FSYNC_DIR_STATS.attempted += 1
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError as exc:
        _fsync_dir_skipped(directory, exc, "open")
        return False
    try:
        os.fsync(fd)
    except OSError as exc:
        _fsync_dir_skipped(directory, exc, "fsync")
        return False
    finally:
        os.close(fd)
    FSYNC_DIR_STATS.synced += 1
    notify_io(op="fsync_dir", path=directory, skipped=False)
    return True


def fsync_file(handle) -> None:
    """Flush one open file handle to stable storage."""
    handle.flush()
    os.fsync(handle.fileno())


def atomic_write_bytes(path: str, data: bytes, *, durable: bool = True) -> None:
    """Atomically replace ``path`` with ``data``.

    ``durable=False`` skips the fsyncs (atomic against concurrent
    readers but not against power loss) — useful in tests and for
    throwaway output.
    """
    with atomic_writer(path, binary=True, durable=durable) as handle:
        handle.write(data)


def atomic_write_text(
    path: str, text: str, *, encoding: str = "utf-8", durable: bool = True
) -> None:
    """Atomically replace ``path`` with ``text``."""
    atomic_write_bytes(path, text.encode(encoding), durable=durable)


@contextlib.contextmanager
def atomic_writer(
    path: Union[str, os.PathLike],
    *,
    binary: bool = False,
    encoding: str = "utf-8",
    durable: bool = True,
) -> Iterator:
    """Context manager yielding a temp-file handle; on clean exit the
    temp file is fsynced and renamed over ``path`` (and the directory
    fsynced), on exception it is removed and ``path`` is untouched."""
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=TMP_SUFFIX
    )
    try:
        mode = "wb" if binary else "w"
        kwargs = {} if binary else {"encoding": encoding}
        with os.fdopen(fd, mode, **kwargs) as handle:
            yield handle
            if durable:
                fsync_file(handle)
        if io_observed():
            with open(tmp, "rb") as readback:
                notify_io(op="write", path=tmp, data=readback.read())
            if durable:
                notify_io(op="fsync", path=tmp)
        os.replace(tmp, path)
        notify_io(op="rename", path=tmp, dst=path)
        if durable:
            fsync_dir(directory)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
            notify_io(op="unlink", path=tmp)
        raise


def durable_replace(src: str, dst: str, *, durable: bool = True) -> None:
    """:func:`os.replace` plus the directory fsync that makes the rename
    itself survive a power cut.  Without the fsync, a crash after the
    caller has moved on can silently undo the rename — the exact gap the
    journal-archive path had before the crash harness caught it."""
    os.replace(src, dst)
    notify_io(op="rename", path=src, dst=dst)
    if durable:
        fsync_dir(os.path.dirname(os.path.abspath(dst)))


def create_exclusive_bytes(path: str, data: bytes, *, durable: bool = True) -> bool:
    """Atomically create ``path`` with ``data`` iff it does not already
    exist (an O_EXCL claim: the filesystem is the arbiter).  Returns False when somebody else holds the file.  The
    data is fsynced unless ``durable=False``; note the *directory
    entry* is not — losing a fresh claim file to a crash is safe
    (liveness, not safety: the claim is simply retried), so no caller
    pays for a directory fsync here."""
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
    except FileExistsError:
        return False
    notify_io(op="create", path=path)
    try:
        os.write(fd, data)
        notify_io(op="write", path=path, data=data)
        if durable:
            os.fsync(fd)
            notify_io(op="fsync", path=path)
    finally:
        os.close(fd)
    return True


def remove_file(path: str) -> bool:
    """Unlink ``path`` if present; returns False when it was already
    gone (or unremovable).  The observable counterpart of the bare
    ``os.unlink`` the server layer used to scatter."""
    try:
        os.unlink(path)
    except OSError:
        return False
    notify_io(op="unlink", path=path)
    return True


def quarantine_path(path: str) -> str:
    """Move a corrupt artifact into ``<path>.quarantine/`` (created on
    demand) instead of deleting it, so the evidence survives for
    post-mortem while sweeps stop tripping over it.  Returns the new
    location; repeated quarantines of the same name get ``.1``, ``.2``
    ... suffixes."""
    directory = path + ".quarantine"
    os.makedirs(directory, exist_ok=True)
    base = os.path.basename(path)
    dest = os.path.join(directory, base)
    counter = 0
    while os.path.exists(dest):
        counter += 1
        dest = os.path.join(directory, f"{base}.{counter}")
    durable_replace(path, dest, durable=False)
    fsync_dir(os.path.dirname(os.path.abspath(path)))
    return dest
