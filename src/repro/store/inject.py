"""Artifact-corruption injection: prove the store's framing fires.

The on-disk counterpart of :mod:`repro.audit.inject`: where that
registry corrupts *in-memory* reclamation bookkeeping and asserts the
auditor converts it into a structured failure, this one corrupts
*persistent artifacts* — the damage a crashed writer, a bad disk, or a
concurrent process leaves behind — and the corruption-matrix tests
assert that every loader converts it into a typed
:class:`~repro.store.errors.ArtifactError` (or a documented salvage)
and that ``python -m repro.store fsck`` detects it.

Each :class:`Corruption` mutates one file deterministically (offsets
are derived from the file size, never from a clock or RNG) and returns
a detail string, or ``None`` when the file is too small for that damage
shape to be distinguishable (e.g. truncating a 1-byte file).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple


@dataclass(frozen=True)
class Corruption:
    """One injectable on-disk corruption."""

    name: str
    description: str
    apply: Callable[[str], Optional[str]]


def _size(path: str) -> int:
    return os.path.getsize(path)


def _truncate(path: str, keep: int) -> str:
    with open(path, "r+b") as fh:
        fh.truncate(keep)
    return f"truncated to {keep} bytes"


def _truncate_half(path: str) -> Optional[str]:
    size = _size(path)
    if size < 2:
        return None
    return _truncate(path, size // 2)


def _truncate_tail(path: str) -> Optional[str]:
    """Chop a handful of final bytes — the classic short write at the
    end of a file whose rename still landed."""
    size = _size(path)
    chop = min(7, size)
    if chop == 0:
        return None
    return _truncate(path, size - chop)


def _empty(path: str) -> Optional[str]:
    if _size(path) == 0:
        return None
    return _truncate(path, 0)


def _bit_flip(path: str) -> Optional[str]:
    """Flip one bit in the middle of the file — bit rot the framing
    digests exist to catch."""
    size = _size(path)
    if size == 0:
        return None
    offset = size // 2
    with open(path, "r+b") as fh:
        fh.seek(offset)
        byte = fh.read(1)
        fh.seek(offset)
        fh.write(bytes([byte[0] ^ 0x10]))
    return f"flipped bit 4 of byte {offset}"


def _zero_fill(path: str) -> Optional[str]:
    """Overwrite a span with NULs — what a crashed filesystem journal
    replay typically leaves in a partially-flushed page."""
    size = _size(path)
    if size < 4:
        return None
    offset = size // 3
    span = min(16, size - offset)
    with open(path, "r+b") as fh:
        fh.seek(offset)
        fh.write(b"\x00" * span)
    return f"zero-filled {span} bytes at offset {offset}"


def _torn_tail(path: str) -> Optional[str]:
    """Append half a record with no terminator — a writer that died
    mid-append (power cut between ``write`` and the final newline)."""
    with open(path, "ab") as fh:
        fh.write(b'deadbeefdeadbeef {"key":"torn')
    return "appended an unterminated partial record"


def _tmp_leftover(path: str) -> Optional[str]:
    """Drop a half-written ``*.tmp`` sibling next to the artifact — the
    debris an interrupted atomic writer leaves; the artifact itself
    stays intact."""
    leftover = path + ".partial.tmp"
    with open(leftover, "wb") as fh:
        fh.write(b'{"version": 1, "half": ')
    return f"left {os.path.basename(leftover)} beside the artifact"


#: Registry of injectable corruptions, keyed by name (the analogue of
#: :data:`repro.audit.inject.FAULTS`).
CORRUPTIONS: Dict[str, Corruption] = {
    c.name: c
    for c in (
        Corruption("truncate-half", "file cut to half its length",
                   _truncate_half),
        Corruption("truncate-tail", "final bytes chopped (short write)",
                   _truncate_tail),
        Corruption("empty", "file truncated to zero bytes", _empty),
        Corruption("bit-flip", "one bit flipped mid-file (bit rot)",
                   _bit_flip),
        Corruption("zero-fill", "a 16-byte span overwritten with NULs",
                   _zero_fill),
        Corruption("torn-tail", "unterminated partial record appended",
                   _torn_tail),
        Corruption("tmp-leftover", "abandoned .tmp sibling from a "
                   "concurrent writer", _tmp_leftover),
    )
}


def corrupt(path: str, name: str) -> Tuple[str, str]:
    """Apply one registered corruption to ``path``; returns
    ``(affected_path, detail)``.  Raises :class:`KeyError` on an unknown
    name and :class:`ValueError` when the corruption is not applicable
    to this file (too small)."""
    corruption = CORRUPTIONS[name]
    detail = corruption.apply(path)
    if detail is None:
        raise ValueError(f"corruption {name!r} is not applicable to {path!r}")
    affected = path + ".partial.tmp" if name == "tmp-leftover" else path
    return affected, detail
