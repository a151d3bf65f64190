"""Crash-state enumeration: op-log prefixes under legal reorderings.

The model is ALICE's, specialized to the ops this repo emits.  A crash
at index ``k`` persists some subset of the stateful ops in
``ops[:k]``, constrained by the barriers observed so far:

* ``fsync(F)`` forces every earlier ``write``/``append`` to ``F`` —
  file *data* only.  It does **not** persist F's directory entry, which
  is why a freshly created file can vanish even after its payload
  was fsynced.
* a non-skipped ``fsync_dir(D)`` forces every earlier ``create`` /
  ``unlink`` of a file in D and every earlier ``rename`` whose source
  *or* destination lives in D.
* a ``fsync_dir`` the platform **skipped** forces nothing — the whole
  point of making skips observable.

Everything not forced is up for grabs, independently: dropped entirely,
applied, or — for data ops — torn at a byte-granularity prefix
(block-aligned tears plus first/middle/last byte).  Renames are atomic:
applied or dropped, never torn.  Two ordering facts keep the model
physical rather than merely combinatorial:

* a dropped ``create`` suppresses later data ops to the same path in
  that prefix (the inode's directory entry never existed);
* a dropped ``rename`` suppresses later data ops to its destination
  (they hit an inode reachable only through the lost entry) while the
  source file survives as temp debris for fsck to sweep.

Exhaustive 2^n subset expansion is replaced by the standard vector
family — all-applied, all-dropped, each single op dropped, each single
op applied alone, and tear points per data op — which covers every
single-fault persistence pattern plus both extremes; states are
deduplicated by content hash so the harness only pays for distinct
on-disk images.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Set

from repro.crash.oplog import DATA_OPS, METADATA_OPS, Op, STATEFUL

#: Tear granularity: filesystems persist page-cache pages independently.
BLOCK = 4096


def _dirname(path: str) -> str:
    return path.rsplit("/", 1)[0] if "/" in path else ""


def forced_indices(ops: List[Op], k: int) -> Set[int]:
    """Indices of ops in ``ops[:k]`` that every crash state at point
    ``k`` must include, because a later barrier forced them."""
    forced: Set[int] = set()
    for j in range(k):
        barrier = ops[j]
        if barrier.kind == "fsync":
            for i in range(j):
                if ops[i].kind in DATA_OPS and ops[i].path == barrier.path:
                    forced.add(i)
        elif barrier.kind == "fsync_dir" and not barrier.skipped:
            for i in range(j):
                op = ops[i]
                if op.kind not in METADATA_OPS:
                    continue
                if op.kind == "rename":
                    dirs = {_dirname(op.path), _dirname(op.dst or "")}
                else:
                    dirs = {_dirname(op.path)}
                if barrier.path in dirs:
                    forced.add(i)
    return forced


def apply_ops(
    ops: List[Op],
    k: int,
    drops: FrozenSet[int] = frozenset(),
    tears: Optional[Dict[int, int]] = None,
) -> Dict[str, bytes]:
    """Replay ``ops[:k]`` into a path→bytes filesystem image, dropping
    the stateful ops in ``drops`` and truncating the data op at each
    ``tears`` index to that many payload bytes.  Forced-op discipline is
    the *enumerator's* job — this function applies whatever it is told."""
    tears = tears or {}
    fs: Dict[str, bytes] = {}
    suppressed: Set[str] = set()
    for i in range(k):
        op = ops[i]
        if op.kind not in STATEFUL:
            continue
        if op.kind == "write":
            if op.path in suppressed:
                continue
            if i in drops:
                continue  # temp entry never persisted
            data = op.data[:tears[i]] if i in tears else op.data
            fs[op.path] = data
        elif op.kind == "append":
            if op.path in suppressed or i in drops:
                continue
            data = op.data[:tears[i]] if i in tears else op.data
            base = fs.get(op.path, b"")
            if len(base) < op.offset:
                base += b"\x00" * (op.offset - len(base))
            fs[op.path] = base[:op.offset] + data
        elif op.kind == "create":
            if i in drops:
                suppressed.add(op.path)
            else:
                suppressed.discard(op.path)
                fs[op.path] = b""
        elif op.kind == "rename":
            if i in drops:
                # Lost rename: dst keeps whatever it had, src remains as
                # debris, and post-rename data to dst is unreachable.
                suppressed.add(op.dst or "")
            else:
                suppressed.discard(op.dst or "")
                fs[op.dst or ""] = fs.pop(op.path, b"")
        elif op.kind == "unlink":
            if i not in drops:
                fs.pop(op.path, None)
    return fs


@dataclass
class CrashState:
    """One reachable power-loss image plus the promises made before it."""

    index: int                 # crash point: ops[:index] were in flight
    description: str           # which reordering produced this image
    fs: Dict[str, bytes]       # path -> bytes, relative to the root
    acked: List[Op] = field(default_factory=list)  # ack ops before index

    def digest(self) -> str:
        h = hashlib.sha256()
        for path in sorted(self.fs):
            h.update(path.encode())
            h.update(b"\x00")
            h.update(hashlib.sha256(self.fs[path]).digest())
        for ack in self.acked:
            h.update(("|" + (ack.label or "")).encode())
        return h.hexdigest()


def _tear_points(length: int) -> List[int]:
    points = {0, 1, length // 2, length - 1}
    points.update(range(BLOCK, length, BLOCK))
    return sorted(p for p in points if 0 <= p < length)


def enumerate_states(ops: List[Op]) -> Iterator[CrashState]:
    """Yield every distinct crash state reachable from the op log.

    For each crash point the vector family is: everything applied,
    everything pending dropped, each pending op dropped alone, each
    pending op applied alone, and each tear point of each pending data
    op (others applied).  Deduplicated by image digest, so the caller
    sees each distinct on-disk state exactly once.
    """
    seen: Set[str] = set()

    def emit(k: int, description: str, drops: FrozenSet[int],
             tears: Dict[int, int]) -> Iterator[CrashState]:
        acked = [op for op in ops[:k] if op.kind == "ack"]
        state = CrashState(index=k, description=description,
                           fs=apply_ops(ops, k, drops, tears), acked=acked)
        key = state.digest()
        if key not in seen:
            seen.add(key)
            yield state

    for k in range(len(ops) + 1):
        forced = forced_indices(ops, k)
        pending = [i for i in range(k)
                   if ops[i].kind in STATEFUL and i not in forced]
        yield from emit(k, f"@{k} all applied", frozenset(), {})
        if not pending:
            continue
        yield from emit(k, f"@{k} all pending dropped", frozenset(pending), {})
        for p in pending:
            yield from emit(k, f"@{k} drop {ops[p]!r}", frozenset([p]), {})
            others = frozenset(q for q in pending if q != p)
            yield from emit(k, f"@{k} only {ops[p]!r}", others, {})
            if ops[p].kind in DATA_OPS and len(ops[p].data) > 1:
                for t in _tear_points(len(ops[p].data)):
                    yield from emit(
                        k, f"@{k} tear {ops[p]!r} at {t}", frozenset(), {p: t})


def materialize(fs: Dict[str, bytes], scratch_root: str) -> None:
    """Write a crash image into a real directory tree for recovery."""
    os.makedirs(scratch_root, exist_ok=True)
    for path in sorted(fs):
        absolute = os.path.join(scratch_root, path.replace("/", os.sep))
        os.makedirs(os.path.dirname(absolute) or scratch_root, exist_ok=True)
        with open(absolute, "wb") as handle:
            handle.write(fs[path])
