"""``fsck`` for the artifact store: scan, verify, repair.

Walks a results/journal tree, recognizes every artifact kind the
simulator persists (sweep journals, fuzz reproducers, serve
records — plus abandoned ``*.tmp`` files
from interrupted atomic writers), verifies each one's integrity framing, and
reports structured findings.  In repair mode it

* deletes concurrent-writer leftovers (``*.tmp``),
* salvages the valid prefix of damaged append-style journals
  (:func:`~repro.store.integrity.salvage_checked_lines`, the rewrite a
  journal's own load does for a torn tail),
* quarantines unrecoverable artifacts to ``<name>.quarantine/``
  (or deletes them with ``delete=True``),

leaving a tree where every remaining artifact loads cleanly.  Files it
does not recognize are never touched.  CLI in
:mod:`repro.store.__main__`::

    python -m repro.store fsck <dir>            # report only
    python -m repro.store fsck --repair <dir>   # fix what can be fixed
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.store.atomic import TMP_SUFFIX, quarantine_path
from repro.store.errors import ArtifactError, SchemaMismatch
from repro.store.integrity import (
    ENVELOPE_MAGIC,
    LINE_DIGEST_HEX,
    read_checked_lines,
    salvage_checked_lines,
    verify_envelope,
)

_CHECKED_LINE_RE = re.compile(rb"^[0-9a-f]{%d} \{" % LINE_DIGEST_HEX)
_QUARANTINE_SUFFIX = ".quarantine"

#: File statuses a finding can carry.
OK = "ok"
CORRUPT = "corrupt"
SALVAGEABLE = "salvageable"
LEFTOVER = "leftover"
SKIPPED = "skipped"


@dataclass
class Finding:
    """One scanned file: what it is, what is wrong, what was done."""

    path: str
    kind: str          # envelope kind | sweep-journal |
                       # serve-job-journal | tmp | unknown
    status: str        # OK / CORRUPT / SALVAGEABLE / LEFTOVER / SKIPPED
    error: Optional[str] = None   # message of the integrity failure
    error_type: Optional[str] = None  # ArtifactError subclass name
    action: Optional[str] = None  # quarantined:<dst> | deleted | salvaged

    def __str__(self) -> str:
        line = f"{self.status:<11} {self.kind:<18} {self.path}"
        if self.error:
            line += f"\n{'':11}   {self.error_type}: {self.error}"
        if self.action:
            line += f"\n{'':11}   -> {self.action}"
        return line


@dataclass
class FsckReport:
    """Outcome of one :func:`fsck_tree` pass."""

    root: str
    repaired: bool
    findings: List[Finding] = field(default_factory=list)

    def _count(self, status: str) -> int:
        return sum(1 for f in self.findings if f.status == status)

    @property
    def scanned(self) -> int:
        return len(self.findings)

    @property
    def ok(self) -> int:
        return self._count(OK)

    @property
    def corrupt(self) -> List[Finding]:
        return [f for f in self.findings
                if f.status in (CORRUPT, SALVAGEABLE, LEFTOVER)]

    @property
    def unrepaired(self) -> List[Finding]:
        """Problems still on disk after this pass (drives the exit
        code: nonzero without ``--repair``, zero after a full repair)."""
        return [f for f in self.corrupt if f.action is None]

    def summary(self) -> str:
        actions = sum(1 for f in self.findings if f.action)
        return (
            f"fsck {self.root}: {self.scanned} file(s) scanned, "
            f"{self.ok} ok, {self._count(CORRUPT)} corrupt, "
            f"{self._count(SALVAGEABLE)} salvageable, "
            f"{self._count(LEFTOVER)} writer leftover(s), "
            f"{self._count(SKIPPED)} skipped; "
            f"{actions} repair action(s), "
            f"{len(self.unrepaired)} problem(s) remaining"
        )


# ========================================================= classification


def _sniff(path: str) -> str:
    """Classify a file by content, not extension — artifacts get copied
    around under arbitrary names."""
    try:
        with open(path, "rb") as fh:
            head = fh.read(4096)
    except OSError:
        return "unreadable"
    if head.startswith(ENVELOPE_MAGIC.encode("ascii")):
        return "envelope"
    if _CHECKED_LINE_RE.match(head):
        return "checked-lines"
    return "unknown"


# ============================================================== verifiers


def _verify_envelope(path: str, finding: Finding) -> None:
    meta = verify_envelope(path)
    finding.kind = meta.kind


def _verify_checked_lines(path: str, finding: Finding) -> None:
    """An append-style checksummed-line file: the sweep journal or the
    serve job journal, told apart by their header ``format`` tags, each
    record checked by its format's own check."""
    from repro.experiments.journal import SWEEP_LOG
    from repro.serve.jobs import JOBS_LOG

    result = read_checked_lines(path)
    header = result.records[0] if result.records else None
    tag = header.get("format") if isinstance(header, dict) else None
    fmt = {log.tag: log for log in (SWEEP_LOG, JOBS_LOG)}.get(tag)
    finding.kind = fmt.kind if fmt is not None else "checked-lines"
    if not result.clean:
        # Any damage in an append-style file leaves its valid prefix
        # salvageable — provided the header survived.
        finding.status = SALVAGEABLE if header is not None else CORRUPT
        raise ArtifactError(
            f"line {result.bad_line}: {result.bad_reason}"
            + (" (torn tail)" if result.torn_tail else ""),
            path=path, kind=finding.kind, line=result.bad_line,
        )
    if fmt is None:
        raise ArtifactError(
            "checksummed-line file has no recognizable journal header",
            path=path, kind=finding.kind, line=1,
        )
    fmt.check_records(path, result.records[1:])


def fsck_tree(
    root: str,
    *,
    repair: bool = False,
    delete: bool = False,
    progress: Optional[Callable[[Finding], None]] = None,
) -> FsckReport:
    """Scan ``root`` (a directory tree or a single file), verify every
    recognized artifact, and — with ``repair`` — delete writer
    leftovers, salvage damaged journals, and quarantine (``delete=True``:
    remove) unrecoverable artifacts.  Returns a :class:`FsckReport`;
    ``progress`` is called once per finding as it lands."""
    report = FsckReport(root=root, repaired=repair)
    for path in _walk(root):
        finding = _check_file(path)
        if repair and finding.status in (CORRUPT, SALVAGEABLE, LEFTOVER):
            _repair_file(finding, delete)
        report.findings.append(finding)
        if progress is not None:
            progress(finding)
    return report


def _walk(root: str):
    if os.path.isfile(root):
        yield root
        return
    for dirpath, dirnames, filenames in os.walk(root):
        # Never descend into quarantine dirs: their contents are known-bad.
        dirnames[:] = sorted(
            d for d in dirnames if not d.endswith(_QUARANTINE_SUFFIX)
        )
        for name in sorted(filenames):
            yield os.path.join(dirpath, name)


_VERIFIERS = {
    "envelope": _verify_envelope,
    "checked-lines": _verify_checked_lines,
}


def _check_file(path: str) -> Finding:
    if path.endswith(TMP_SUFFIX):
        return Finding(
            path=path, kind="tmp", status=LEFTOVER,
            error="abandoned atomic-writer temp file", error_type="Leftover",
        )
    try:
        if os.path.getsize(path) == 0:
            # An empty file carries nothing to sniff; flag it only when
            # its name claims to be one of our artifacts (.gitkeep-style
            # markers stay untouched).
            if path.endswith((".json", ".ckpt")):
                return Finding(
                    path=path, kind="unknown", status=CORRUPT,
                    error="empty artifact file (truncated to zero bytes)",
                    error_type="TruncatedArtifact",
                )
            return Finding(path=path, kind="unknown", status=SKIPPED)
    except OSError as exc:
        return Finding(
            path=path, kind="unknown", status=CORRUPT,
            error=f"unreadable: {exc}", error_type=type(exc).__name__,
        )
    sniffed = _sniff(path)
    finding = Finding(path=path, kind=sniffed, status=OK)
    verifier = _VERIFIERS.get(sniffed)
    if verifier is None:
        finding.status = SKIPPED
        return finding
    try:
        verifier(path, finding)
    except SchemaMismatch as exc:
        # Intact but incompatible (old schema, foreign kind): report it,
        # but never quarantine — regenerating/archiving is the caller's
        # decision, and the file is not damaged.
        finding.status = SKIPPED
        finding.error = str(exc)
        finding.error_type = type(exc).__name__
    except ArtifactError as exc:
        if finding.status == OK:
            finding.status = CORRUPT
        finding.error = str(exc)
        finding.error_type = type(exc).__name__
    except OSError as exc:
        finding.status = CORRUPT
        finding.error = f"unreadable: {exc}"
        finding.error_type = type(exc).__name__
    return finding


def _repair_file(finding: Finding, delete: bool) -> None:
    try:
        if finding.status == LEFTOVER:
            os.unlink(finding.path)
            finding.action = "deleted"
        elif finding.status == SALVAGEABLE:
            result = salvage_checked_lines(finding.path)
            finding.action = (
                f"salvaged: kept the {len(result.records)}-record valid "
                f"prefix, dropped line {result.bad_line}+"
            )
        elif delete:
            os.unlink(finding.path)
            finding.action = "deleted"
        else:
            finding.action = f"quarantined: {quarantine_path(finding.path)}"
    except OSError as exc:
        finding.action = None
        finding.error = (finding.error or "") + f" [repair failed: {exc}]"
