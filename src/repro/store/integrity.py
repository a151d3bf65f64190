"""Checksummed artifact framing.

Two wire formats, both designed so that corrupting any single byte of a
file is *detected* at read time as a typed
:class:`~repro.store.errors.ArtifactError` rather than surfacing as a
bogus simulation result or a bare exception:

**Framed JSON envelope** (serve cache entries, fuzz reproducers) — one header
line, the JSON payload, one trailer sentinel::

    %repro-artifact v1 kind=<kind> schema=<int> len=<bytes> sha256=<hex> hdr=<hex16>
    <payload: exactly len bytes of UTF-8 JSON>
    %repro-artifact-end

The header declares the payload length (truncation detection without
hashing), the SHA-256 of the payload (bit-level corruption detection),
the artifact kind (a cache entry handed to the reproducer loader is a
:class:`SchemaMismatch`, not garbage), and the artifact's own schema
version.  ``hdr`` is a truncated SHA-256 of the header fields
themselves — kind/schema/len are outside the payload digest's reach,
so without it a bit flip in the header could go unnoticed.  The
trailer sentinel catches torn tails: a crash that wrote the header and
part of the payload, or appended trailing garbage.

**Checksummed line records** (the append-style journals) — each line
is independently framed as ``<sha256-hex16> <json>``, so a crash
mid-append damages only the final line and the valid prefix is
salvageable (:func:`read_checked_lines`, :func:`salvage_checked_lines`).
:class:`CheckedLog` holds the one set of rules for a log of such lines
behind a ``{format, version}`` header; the sweep journal and the serve
job journal are two :class:`LogFormat` values of it.

An unframed file is never guessed at: it fails as a typed
:class:`SchemaMismatch` (or :class:`TruncatedArtifact` when empty).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

from repro.store.atomic import atomic_write_bytes, atomic_writer, notify_io
from repro.store.errors import (
    DigestMismatch,
    MalformedRecord,
    SchemaMismatch,
    TruncatedArtifact,
)

#: Magic of the framed JSON envelope (also the sniffing key for fsck).
ENVELOPE_MAGIC = "%repro-artifact"
#: Envelope *framing* version — independent of each artifact's schema.
ENVELOPE_VERSION = 1
_TRAILER = b"%repro-artifact-end\n"

#: Hex digits of the per-line digest in checksummed line records.
LINE_DIGEST_HEX = 16


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass(frozen=True)
class ArtifactMeta:
    """What the reader learned about an artifact's framing."""

    kind: str
    schema: int
    payload_len: int
    digest: str


# ============================================================= envelope


def envelope_bytes(kind: str, schema: int, payload: Any) -> bytes:
    """Frame a JSON-serializable ``payload`` into envelope bytes."""
    body = json.dumps(payload, separators=(",", ":"), sort_keys=True)
    data = body.encode("utf-8")
    core = (
        f"v{ENVELOPE_VERSION} kind={kind} schema={schema} "
        f"len={len(data)} sha256={sha256_hex(data)}"
    )
    # The header protects the payload; ``hdr`` protects the header
    # itself (kind/schema are not otherwise covered by any digest).
    hdr = sha256_hex(core.encode("ascii"))[:LINE_DIGEST_HEX]
    return (
        f"{ENVELOPE_MAGIC} {core} hdr={hdr}\n".encode("ascii")
        + data + b"\n" + _TRAILER
    )


def write_json_artifact(
    path: str, kind: str, schema: int, payload: Any, *, durable: bool = True
) -> None:
    """Atomically write ``payload`` to ``path`` as a framed, digest-
    bearing envelope (see module docstring)."""
    atomic_write_bytes(path, envelope_bytes(kind, schema, payload), durable=durable)


def _parse_header(line: bytes, path: str) -> dict:
    try:
        text = line.decode("ascii").rstrip("\n")
        if not text.startswith(ENVELOPE_MAGIC + " "):
            raise ValueError("bad magic separator")
        core, hdr = text[len(ENVELOPE_MAGIC) + 1 :].rsplit(" hdr=", 1)
        parts = core.split()
        fields = dict(part.split("=", 1) for part in parts[1:])
        header = {
            "version": int(parts[0].lstrip("v")),
            "kind": fields["kind"],
            "schema": int(fields["schema"]),
            "len": int(fields["len"]),
            "sha256": fields["sha256"],
        }
    except (UnicodeDecodeError, ValueError, KeyError, IndexError):
        raise MalformedRecord(
            "unparseable artifact envelope header", path=path, line=1
        ) from None
    actual = sha256_hex(core.encode("ascii"))[:LINE_DIGEST_HEX]
    if actual != hdr:
        # kind/schema are outside the payload digest's reach; the header
        # self-digest is what makes a flip there detectable.
        raise DigestMismatch(
            "envelope header does not match its self-digest",
            path=path, line=1, expected=hdr, actual=actual,
        )
    return header


def read_json_artifact(
    path: str,
    kind: str,
    *,
    expected_schema: Optional[int] = None,
) -> Tuple[Any, ArtifactMeta]:
    """Read and verify a framed JSON artifact; returns ``(payload,
    meta)``.

    Raises :class:`TruncatedArtifact` on short/empty files or a missing
    trailer, :class:`DigestMismatch` on any byte-level damage,
    :class:`SchemaMismatch` on a wrong kind (or, when
    ``expected_schema`` is given, a wrong schema version), and
    :class:`MalformedRecord` on framing/JSON that does not parse.  A
    non-empty file that does not start with the envelope magic (plain
    JSON included) is a :class:`SchemaMismatch`.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if not raw:
        raise TruncatedArtifact("empty artifact file", path=path, kind=kind)
    if not raw.startswith(ENVELOPE_MAGIC.encode("ascii")):
        raise SchemaMismatch(
            f"not a {ENVELOPE_MAGIC} envelope", path=path, kind=kind,
            found=None, expected=ENVELOPE_VERSION,
        )
    newline = raw.find(b"\n")
    if newline < 0:
        raise TruncatedArtifact(
            "envelope header line has no newline (torn write)",
            path=path, kind=kind, offset=len(raw),
        )
    header = _parse_header(raw[: newline + 1], path)
    if header["version"] != ENVELOPE_VERSION:
        raise SchemaMismatch(
            f"envelope framing version {header['version']} is not supported "
            f"(this build reads v{ENVELOPE_VERSION})",
            path=path, kind=kind,
            found=header["version"], expected=ENVELOPE_VERSION,
        )
    if header["kind"] != kind:
        raise SchemaMismatch(
            f"artifact kind is {header['kind']!r}, expected {kind!r}",
            path=path, kind=kind, found=header["kind"], expected=kind,
        )
    start = newline + 1
    payload = raw[start : start + header["len"]]
    if len(payload) < header["len"]:
        raise TruncatedArtifact(
            f"payload is {len(payload)} bytes, header declares "
            f"{header['len']} (truncated file)",
            path=path, kind=kind, offset=len(raw),
        )
    actual = sha256_hex(payload)
    if actual != header["sha256"]:
        raise DigestMismatch(
            "payload does not match its stored SHA-256", path=path,
            kind=kind, expected=header["sha256"], actual=actual,
        )
    tail = raw[start + header["len"] :]
    if tail != b"\n" + _TRAILER:
        if len(tail) < len(b"\n" + _TRAILER) and (b"\n" + _TRAILER).startswith(tail):
            raise TruncatedArtifact(
                "trailer sentinel missing (torn tail)",
                path=path, kind=kind, offset=len(raw),
            )
        raise MalformedRecord(
            f"{len(tail)} unexpected byte(s) after the trailer sentinel "
            "(concurrent writer or appended garbage)",
            path=path, kind=kind, offset=start + header["len"],
        )
    try:
        value = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        # Digest-valid but unparseable: the artifact was *written* wrong.
        raise MalformedRecord(
            f"digest-valid payload is not JSON ({exc})", path=path, kind=kind
        ) from exc
    if expected_schema is not None and header["schema"] != expected_schema:
        raise SchemaMismatch(
            f"{kind} schema version {header['schema']} is not supported "
            f"(this build reads version {expected_schema})",
            path=path, kind=kind,
            found=header["schema"], expected=expected_schema,
        )
    meta = ArtifactMeta(
        kind=header["kind"], schema=header["schema"],
        payload_len=header["len"], digest=header["sha256"],
    )
    return value, meta


def verify_envelope(path: str) -> ArtifactMeta:
    """Integrity-check a framed envelope without caring about its kind
    or schema (fsck's cheap pass).  Raises the same typed errors as
    :func:`read_json_artifact`."""
    with open(path, "rb") as fh:
        first = fh.read(len(ENVELOPE_MAGIC))
    if first != ENVELOPE_MAGIC.encode("ascii"):
        raise SchemaMismatch(
            f"not a {ENVELOPE_MAGIC} envelope", path=path, found=None,
            expected=ENVELOPE_VERSION,
        )
    header = _parse_header_of(path)
    _, meta = read_json_artifact(path, header["kind"])
    return meta


def _parse_header_of(path: str) -> dict:
    with open(path, "rb") as fh:
        line = fh.readline(4096)
    if not line.endswith(b"\n"):
        raise TruncatedArtifact(
            "envelope header line has no newline (torn write)", path=path,
            offset=len(line),
        )
    return _parse_header(line, path)


# ==================================================== checksummed lines


def checked_line(payload: Any) -> str:
    """Frame one JSON-serializable record as a self-checksummed line."""
    body = json.dumps(payload, separators=(",", ":"), sort_keys=True)
    return f"{sha256_hex(body.encode('utf-8'))[:LINE_DIGEST_HEX]} {body}\n"


@dataclass
class SalvageResult:
    """Outcome of reading an append-style checksummed-line file."""

    records: List[Any]
    #: Total physical lines seen (including damaged ones).
    total_lines: int
    #: 1-based line number of the first damaged line, or None if clean.
    bad_line: Optional[int] = None
    #: Why that line was rejected.
    bad_reason: Optional[str] = None
    #: True when the damage is a torn final line (expected after a crash
    #: mid-append) rather than interior corruption.
    torn_tail: bool = False

    @property
    def clean(self) -> bool:
        return self.bad_line is None


def read_checked_lines(path: str) -> SalvageResult:
    """Read an append-style file of :func:`checked_line` records,
    stopping at the first damaged line (the valid prefix is what an
    append-only writer guarantees; anything after interior damage has
    unknowable provenance).

    Never raises on damage — callers decide whether a non-clean result
    is an auto-salvageable torn tail or a hard
    :class:`~repro.store.errors.DigestMismatch`.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    lines = raw.split(b"\n")
    trailing_newline = lines and lines[-1] == b""
    if trailing_newline:
        lines.pop()
    records: List[Any] = []
    for index, line in enumerate(lines):
        number = index + 1
        is_last = index == len(lines) - 1
        torn = is_last and not trailing_newline
        reason = None
        body = None
        if b" " not in line or len(line) < LINE_DIGEST_HEX + 2:
            reason = "unframed line (no digest prefix)"
        else:
            digest, body = line.split(b" ", 1)
            try:
                digest_text = digest.decode("ascii")
            except UnicodeDecodeError:
                digest_text = ""
            if len(digest_text) != LINE_DIGEST_HEX:
                reason = "digest prefix has the wrong width"
            elif sha256_hex(body)[:LINE_DIGEST_HEX] != digest_text:
                reason = "line does not match its digest"
        if reason is None:
            try:
                records.append(json.loads(body.decode("utf-8")))
            except (UnicodeDecodeError, json.JSONDecodeError):
                reason = "digest-valid line is not JSON"
        if reason is not None:
            return SalvageResult(
                records=records, total_lines=len(lines),
                bad_line=number, bad_reason=reason, torn_tail=torn,
            )
    return SalvageResult(records=records, total_lines=len(lines))


def append_checked_line(path: str, payload: Any, *, durable: bool = True) -> None:
    """Append one checksummed record and (by default) fsync the file —
    the append-only analogue of :func:`write_json_artifact`."""
    line = checked_line(payload)
    try:
        offset = os.path.getsize(path)
    except OSError:
        offset = 0
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(line)
        notify_io(op="append", path=path, data=line.encode("utf-8"),
                  offset=offset)
        if durable:
            fh.flush()
            os.fsync(fh.fileno())
            notify_io(op="fsync", path=path)


def salvage_checked_lines(
    path: str, result: Optional[SalvageResult] = None
) -> SalvageResult:
    """Atomically rewrite a damaged checked-line file with its valid
    prefix (``result``, when the caller has already read the file), and
    return what was read."""
    if result is None:
        result = read_checked_lines(path)
    with atomic_writer(path) as handle:
        for record in result.records:
            handle.write(checked_line(record))
    return result


# ============================================================ the log


@dataclass(frozen=True)
class LogFormat:
    """One append-only log format: the ``format`` tag and ``version`` of
    its header, the ``kind`` its errors name, and ``check``, which says
    why a record is not one of this format's (``None`` when it is)."""

    tag: str
    version: int
    kind: str
    check: Callable[[Any], Optional[str]]

    def check_records(self, path: str, records: List[Any]) -> None:
        """Raise :class:`MalformedRecord` at the first of ``records``
        (the lines after the header) that :attr:`check` rejects."""
        for line, record in enumerate(records, start=2):
            problem = self.check(record)
            if problem is not None:
                raise MalformedRecord(problem, path=path, kind=self.kind,
                                      line=line)


class CheckedLog:
    """An append-only file of :func:`checked_line` records behind a
    ``{format, version}`` header.

    :meth:`load` starts the log fresh when there is no file, or it is
    empty, or a crash tore its header; salvages a torn tail (the valid
    prefix is rewritten, the damage noted in :attr:`salvaged`); and
    raises :class:`MalformedRecord` for a damaged or foreign header or a
    record :attr:`LogFormat.check` rejects, :class:`SchemaMismatch` for
    another version and :class:`DigestMismatch` for damage before the
    final line.  :meth:`append` writes the header together with the
    first record.
    """

    def __init__(self, path: str, fmt: LogFormat) -> None:
        self.path = path
        self.fmt = fmt
        #: ``(line, reason)`` of a torn tail dropped at load, if any.
        self.salvaged: Optional[Tuple[int, str]] = None
        self._started = False

    def load(self) -> List[Any]:
        """The records after the header, checked (none for a fresh log)."""
        path, fmt = self.path, self.fmt
        if not os.path.exists(path):
            return []
        result = read_checked_lines(path)
        if not result.records:
            if result.total_lines == 0 or (result.bad_line == 1
                                           and result.torn_tail):
                # Empty file or a crash while the header was being
                # written: nothing recorded yet, start fresh.
                return []
            raise MalformedRecord(
                f"{fmt.kind} header line is damaged ({result.bad_reason}); "
                f"run `python -m repro.store fsck --repair` or delete it",
                path=path, kind=fmt.kind, line=result.bad_line,
            )
        header = result.records[0]
        if not isinstance(header, dict) or header.get("format") != fmt.tag:
            raise MalformedRecord(
                f"first record is not a {fmt.kind} header",
                path=path, kind=fmt.kind, line=1,
            )
        version = header.get("version")
        if version != fmt.version:
            raise SchemaMismatch(
                f"{fmt.kind} has version {version}, expected "
                f"{fmt.version}; delete it or move it aside",
                path=path, kind=fmt.kind, found=version, expected=fmt.version,
            )
        if not result.clean and not result.torn_tail:
            raise DigestMismatch(
                f"{fmt.kind} record is damaged before the final line "
                f"({result.bad_reason}); the valid prefix "
                f"({len(result.records) - 1} records) is salvageable with "
                f"`python -m repro.store fsck --repair`",
                path=path, kind=fmt.kind, line=result.bad_line,
            )
        records = result.records[1:]
        fmt.check_records(path, records)
        self._started = True
        if not result.clean:  # torn tail: drop it from disk too
            self.salvaged = (result.bad_line, result.bad_reason)
            salvage_checked_lines(path, result)
        return records

    def append(self, record: Any, *, durable: bool = True) -> None:
        """Check and append one record; ``durable=False`` skips the
        fsync.  The first record is written atomically with the header."""
        problem = self.fmt.check(record)
        if problem is not None:
            raise ValueError(problem)
        if self._started:
            append_checked_line(self.path, record, durable=durable)
            return
        with atomic_writer(self.path) as handle:
            handle.write(checked_line({"format": self.fmt.tag,
                                       "version": self.fmt.version}))
            handle.write(checked_line(record))
        self._started = True
