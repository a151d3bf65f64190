"""Typed artifact-integrity errors.

Every persistent artifact reader in the tree (sweep journals, fuzz
reproducers, serve records) raises exactly one
hierarchy on bad input, so callers can tell *corrupt* (quarantine the
file, keep the sweep alive) from *incompatible* (a schema migration —
archive or regenerate) without string-matching messages, and no bare
``IndexError``/``KeyError``/``json.JSONDecodeError`` ever escapes a
load path.

:class:`ArtifactError` subclasses :class:`ValueError` deliberately:
pre-store call sites (and tests) that caught ``ValueError`` on corrupt
input keep working, while new code can catch the precise class.
"""

from __future__ import annotations

from typing import Optional


class ArtifactError(ValueError):
    """Base class: a persistent artifact cannot be read.

    Carries enough location detail to report *where* the damage is:
    ``path`` always, ``line`` (1-based) for line-oriented formats,
    ``offset`` (bytes) for framed formats.
    """

    def __init__(
        self,
        message: str,
        *,
        path: str,
        kind: Optional[str] = None,
        line: Optional[int] = None,
        offset: Optional[int] = None,
    ) -> None:
        self.path = path
        self.kind = kind
        self.line = line
        self.offset = offset
        where = path
        if line is not None:
            where += f":{line}"
        elif offset is not None:
            where += f" @byte {offset}"
        super().__init__(f"{where}: {message}")


class TruncatedArtifact(ArtifactError):
    """The file ends before its own framing says it should: a missing
    trailer sentinel, fewer payload bytes than the declared length,
    an empty file."""


class DigestMismatch(ArtifactError):
    """The stored SHA-256 digest does not match the bytes on disk —
    silent corruption (bit rot, torn write, manual edit)."""

    def __init__(
        self,
        message: str,
        *,
        path: str,
        expected: Optional[str] = None,
        actual: Optional[str] = None,
        **kw,
    ) -> None:
        self.expected = expected
        self.actual = actual
        if expected and actual:
            message += f" (stored {expected[:16]}…, computed {actual[:16]}…)"
        super().__init__(message, path=path, **kw)


class SchemaMismatch(ArtifactError):
    """The artifact is intact but written by an incompatible schema (or
    is a different artifact kind entirely).  Not corruption: the right
    response is archive/regenerate, never quarantine."""

    def __init__(
        self,
        message: str,
        *,
        path: str,
        found=None,
        expected=None,
        **kw,
    ) -> None:
        self.found = found
        self.expected = expected
        super().__init__(message, path=path, **kw)


class MalformedRecord(ArtifactError):
    """One record inside the artifact does not parse: an unframed
    journal line, JSON that does not decode.  ``line``/``offset`` point at the record."""
