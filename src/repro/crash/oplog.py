"""Op-log recording: turn observed I/O into a replayable trace.

The grammar is small because the I/O surface is small.  One
:class:`Op` per event, in program order:

========== ============================================================
kind       meaning
========== ============================================================
write      full-file contents landed in ``path`` (temp file of an
           atomic write, or the payload of an exclusive create)
append     ``data`` appended to ``path`` at byte ``offset``
create     ``path`` created with ``O_EXCL``
rename     ``path`` atomically renamed to ``dst`` (:func:`os.replace`)
unlink     ``path`` removed
fsync      file data of ``path`` forced to stable storage
fsync_dir  directory entries of ``path`` forced — unless ``skipped``
           is True, in which case the platform refused and *nothing*
           was forced
ack        not an I/O at all: the workload declares that an API just
           returned success for ``label``, so everything the API wrote
           must now survive any crash
========== ============================================================

Paths are stored relative to the recorder's root; events touching files
outside the root (quarantine moves into other trees, tempfiles from
other subsystems) are dropped so the model stays closed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.store.atomic import add_io_observer, remove_io_observer

#: Op kinds that change on-disk state (candidates for being lost in a
#: crash); fsync/fsync_dir are barriers, ack is bookkeeping.
STATEFUL = frozenset({"write", "append", "create", "rename", "unlink"})

#: Op kinds that move file *data* (forced by fsync on the same path).
DATA_OPS = frozenset({"write", "append"})

#: Op kinds that change *directory entries* (forced by fsync_dir on the
#: containing directory).
METADATA_OPS = frozenset({"create", "rename", "unlink"})


@dataclass
class Op:
    """One recorded I/O operation (or ack pseudo-op)."""

    kind: str
    path: str = ""
    dst: Optional[str] = None
    data: bytes = b""
    offset: int = 0
    skipped: bool = False
    label: Optional[str] = None
    info: Dict = field(default_factory=dict)

    def __repr__(self) -> str:  # compact, for violation messages
        bits = [self.kind, self.path]
        if self.dst is not None:
            bits.append("-> " + self.dst)
        if self.kind == "append":
            bits.append(f"@{self.offset}+{len(self.data)}")
        elif self.data:
            bits.append(f"[{len(self.data)}B]")
        if self.skipped:
            bits.append("(skipped)")
        if self.label:
            bits.append(f"ack:{self.label}")
        return "<" + " ".join(b for b in bits if b) + ">"


class CrashRecorder:
    """Context manager that subscribes to the store's I/O observers and
    accumulates an op log for everything under ``root``.

    Use::

        with CrashRecorder(root) as rec:
            workload_writes_things(root)
            rec.ack("first-envelope", version=1)
        states = enumerate_states(rec.ops)
    """

    def __init__(self, root: str) -> None:
        self.root = os.path.abspath(root)
        self.ops: List[Op] = []

    # -------------------------------------------------------- recording

    def _relative(self, path: str) -> Optional[str]:
        """Root-relative form of ``path``, or None when outside root."""
        absolute = os.path.abspath(path)
        if absolute == self.root:
            return ""
        prefix = self.root + os.sep
        if not absolute.startswith(prefix):
            return None
        return absolute[len(prefix):].replace(os.sep, "/")

    def __call__(self, event: Dict) -> None:
        path = self._relative(event.get("path", ""))
        if path is None:
            return
        dst = event.get("dst")
        if dst is not None:
            dst = self._relative(dst)
            if dst is None:
                return  # renamed out of the modelled tree
        self.ops.append(Op(
            kind=event["op"],
            path=path,
            dst=dst,
            data=bytes(event.get("data", b"")),
            offset=int(event.get("offset", 0)),
            skipped=bool(event.get("skipped", False)),
        ))

    def ack(self, label: str, **info) -> None:
        """Mark this instant as an acknowledgment point: the workload's
        caller has been told ``label`` is durable, so the oracle will
        demand it survives any crash at or after this index."""
        self.ops.append(Op(kind="ack", label=label, info=dict(info)))

    # ------------------------------------------------- context manager

    def __enter__(self) -> "CrashRecorder":
        add_io_observer(self)
        return self

    def __exit__(self, *exc_info) -> None:
        remove_io_observer(self)
