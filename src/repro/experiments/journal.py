"""On-disk sweep journal: resume interrupted figure/table runs.

A :class:`SweepJournal` maps cell keys —
``benchmark|scheme|width|run-spec|config-digest`` — to either a
serialized :class:`~repro.core.stats.SimStats` (completed cell) or a
structured error record (failed cell).
:func:`~repro.experiments.runner.run_cells` consults it before
simulating each cell and appends to it as cells finish, so a sweep
killed halfway (machine crash, OOM-killed worker, Ctrl-C) resumes from
the completed cells instead of re-simulating them.  Failed cells are
*not* resumed — a re-run retries them.

Cell keys embed a digest of the *full resolved*
:class:`~repro.config.MachineConfig` (via
:func:`~repro.config.config_digest`), not just the knobs named in the
:class:`~repro.experiments.runner.RunSpec`: two cells that differ only
in, say, physical register file size (the Figure 9 PRF sweep) or an
inline-width override resolve to different keys and can never collide in
one journal file.

On-disk format (version 3) — **append-style checksummed lines** via
:mod:`repro.store`: one header record followed by one record per
finished cell, each line independently framed as
``<sha256-16hex> <json>`` and fsynced as it is appended.  Recording a
cell therefore costs O(1) I/O (the v2 journal rewrote the whole
document per cell), a crash mid-append damages at most the final line
(the *torn tail*, salvaged automatically on the next load), and any
byte of silent corruption is detected by a line digest.  A later
record for the same key supersedes the earlier one, which is how
re-runs heal failed cells.  Interior corruption — damage before the
last line — raises :class:`~repro.store.errors.DigestMismatch` and is
repairable with ``python -m repro.store fsck --repair`` (the valid
prefix is salvaged).

Besides cell records (``{"key": ..., "cell": ...}``), a journal may
carry **lease records** (``{"lease": {...}}``) — the durable audit
trail of the sweep farm (:mod:`repro.farm`): one line per lease
transition (``leased`` / ``heartbeat`` / ``completed`` / ``abandoned``
/ ``released``), each checksummed exactly like a cell line, so
``python -m repro.store fsck`` round-trips farmed journals unchanged.
Lease records never affect which cells are restored — they are
provenance, replayable to reconstruct who ran what, when, and how many
times each cell was reclaimed.

The header record carries a schema version.  Loading a journal written
by a different version (including the v1/v2 whole-document JSON
formats) raises by default; pass ``archive_incompatible=True`` to move
the old file aside (``<path>.v<N>.bak``) and restart fresh instead —
the archived cells stay on disk for manual salvage.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Tuple

from repro.config import MachineConfig, config_digest
from repro.core.stats import SimStats
from repro.store.atomic import atomic_writer, durable_replace
from repro.store.errors import DigestMismatch, MalformedRecord
from repro.store.integrity import (
    append_checked_line,
    checked_line,
    read_checked_lines,
)

_VERSION = 3

#: ``format`` tag of the journal header record (fsck's sniffing key).
JOURNAL_FORMAT = "repro-sweep-journal"

#: The lease state machine of the sweep farm (:mod:`repro.farm`), in
#: lifecycle order.  ``leased`` — a worker claimed the cell;
#: ``heartbeat`` — periodic liveness (journaled at a throttled rate);
#: ``completed`` — the cell's result was folded; ``abandoned`` — the
#: lease expired (crash/stall/timeout) and the cell became claimable
#: again; ``released`` — the holder gave the cell back voluntarily
#: (graceful drain or spot eviction) without completing it.
LEASE_STATES = ("leased", "heartbeat", "completed", "abandoned", "released")

#: Fields every journaled lease record must carry (fsck validates them).
LEASE_FIELDS = ("key", "state", "worker", "ts")


def stats_to_dict(stats: SimStats) -> Dict:
    """JSON-serializable form of a :class:`SimStats` (deep)."""
    return stats.to_dict()


def stats_from_dict(data: Dict) -> SimStats:
    """Inverse of :func:`stats_to_dict`."""
    return SimStats.from_dict(data)


def cell_key(
    benchmark: str,
    scheme: str,
    width: int,
    spec,
    config: Optional[MachineConfig] = None,
) -> str:
    """Stable identity of one sweep cell.  Includes everything that
    determines the simulation's outcome — the workload knobs from the
    run spec plus a digest of the fully resolved machine config — so one
    journal file can safely back multiple figures, run lengths, and
    config sweeps (PRF sizes, width-bit overrides, ...).

    ``config`` is the resolved :class:`~repro.config.MachineConfig` the
    cell will simulate; when omitted it is re-derived from
    ``(scheme, width, spec)`` exactly as
    :func:`~repro.experiments.runner.run_one` derives it.
    """
    if config is None:
        # Lazy: the runner imports this module.
        from repro.experiments.runner import resolve_config

        config = resolve_config(scheme, width, spec)
    return (
        f"{benchmark}|{scheme}|w{width}|n{spec.length}|u{spec.warmup}"
        f"|s{spec.seed}|c{spec.max_cycles or 0}|a{int(spec.audit)}"
        f"|{config_digest(config)}"
    )


def _header_record() -> Dict:
    return {"format": JOURNAL_FORMAT, "version": _VERSION}


class SweepJournal:
    """Journal of completed/failed sweep cells, persisted (appended and
    fsynced) after every update."""

    def __init__(self, path: str, archive_incompatible: bool = False) -> None:
        self.path = path
        self._cells: Dict[str, Dict] = {}
        #: Every lease transition journaled so far, in append order (the
        #: sweep farm's audit trail; see :data:`LEASE_STATES`).
        self.lease_events: List[Dict] = []
        #: Path the incompatible predecessor was moved to, if any.
        self.archived: Optional[str] = None
        #: ``(line, reason)`` of a torn tail dropped at load, if any.
        self.salvaged: Optional[Tuple[int, str]] = None
        self._initialized = False
        if os.path.exists(path):
            self._load(path, archive_incompatible)

    # ------------------------------------------------------------ load

    def _load(self, path: str, archive_incompatible: bool) -> None:
        with open(path, "rb") as handle:
            head = handle.read(64).lstrip()
        if head.startswith(b"{"):
            self._load_legacy_document(path, archive_incompatible)
            return
        result = read_checked_lines(path)
        if not result.records:
            if result.total_lines == 0 or (result.bad_line == 1
                                           and result.torn_tail):
                # Empty file or a crash while the header was being
                # written: nothing recorded yet, start fresh.
                return
            raise MalformedRecord(
                f"journal header line is damaged "
                f"({result.bad_reason}); run "
                f"`python -m repro.store fsck --repair` or delete it",
                path=path, kind="sweep-journal", line=result.bad_line,
            )
        header = result.records[0]
        if not isinstance(header, dict) or header.get("format") != JOURNAL_FORMAT:
            raise MalformedRecord(
                "first record is not a sweep-journal header",
                path=path, kind="sweep-journal", line=1,
            )
        version = header.get("version")
        if version != _VERSION:
            if not archive_incompatible:
                raise ValueError(
                    f"journal {path!r} has version {version}, expected "
                    f"{_VERSION}; delete it, move it aside, or pass "
                    f"archive_incompatible=True to archive it and start "
                    f"a fresh sweep"
                )
            self._archive(path, version)
            return
        if not result.clean and not result.torn_tail:
            raise DigestMismatch(
                f"journal record is damaged before the final line "
                f"({result.bad_reason}); the valid prefix "
                f"({len(result.records) - 1} cell records) is salvageable "
                f"with `python -m repro.store fsck --repair`",
                path=path, kind="sweep-journal", line=result.bad_line,
            )
        for record in result.records[1:]:
            if isinstance(record, dict) and "lease" in record:
                self.lease_events.append(record["lease"])
                continue
            if (
                not isinstance(record, dict)
                or "key" not in record
                or "cell" not in record
            ):
                raise MalformedRecord(
                    "journal record lacks key/cell fields",
                    path=path, kind="sweep-journal",
                )
            self._cells[record["key"]] = record["cell"]
        self._initialized = True
        if not result.clean:  # torn tail: drop it from disk too
            self.salvaged = (result.bad_line, result.bad_reason)
            self._rewrite()

    def _load_legacy_document(self, path: str, archive_incompatible: bool) -> None:
        """A v1/v2 whole-document JSON journal: incompatible by
        construction (v3 is the line format), so apply the standard
        archive-or-raise policy; corrupt JSON is typed, never a bare
        ``json.JSONDecodeError``."""
        with open(path, encoding="utf-8") as handle:
            try:
                doc = json.load(handle)
            except json.JSONDecodeError as exc:
                raise MalformedRecord(
                    f"journal is not valid JSON ({exc}); run "
                    f"`python -m repro.store fsck --repair` to quarantine "
                    f"it, or delete it to start a fresh sweep",
                    path=path, kind="sweep-journal",
                ) from exc
        version = doc.get("version") if isinstance(doc, dict) else None
        if not archive_incompatible:
            raise ValueError(
                f"journal {path!r} has version {version}, expected "
                f"{_VERSION}; delete it, move it aside, or pass "
                f"archive_incompatible=True to archive it and start "
                f"a fresh sweep"
            )
        self._archive(path, version)

    def _archive(self, path: str, version) -> None:
        # The rename must be made durable *here*: the caller is told the
        # archive's path (self.archived) as soon as we return, and the
        # next directory fsync may be arbitrarily far away (the first
        # append's rewrite).  Without the directory fsync a crash in
        # that window resurrects the incompatible journal at `path` and
        # silently loses the archive — the first gap the crash harness
        # (repro.crash) caught, kept honest by a reverted-fix test.
        self.archived = f"{path}.v{version}.bak"
        durable_replace(path, self.archived)

    # --------------------------------------------------------- queries

    def __len__(self) -> int:
        return len(self._cells)

    @property
    def completed(self) -> int:
        return sum(1 for c in self._cells.values() if c.get("status") == "ok")

    def get(self, key: str) -> Optional[SimStats]:
        """Stats for a completed cell, or None (missing or failed)."""
        cell = self._cells.get(key)
        if cell is None or cell.get("status") != "ok":
            return None
        return stats_from_dict(cell["stats"])

    def errors(self) -> Dict[str, Dict]:
        """key -> error record for every failed cell still journaled."""
        return {
            key: cell["error"]
            for key, cell in self._cells.items()
            if cell.get("status") == "error"
        }

    def lease_states(self) -> Dict[str, Dict]:
        """key -> the *latest* journaled lease record per cell (replaying
        :attr:`lease_events` in append order)."""
        latest: Dict[str, Dict] = {}
        for event in self.lease_events:
            key = event.get("key")
            if key is not None:
                latest[key] = event
        return latest

    # --------------------------------------------------------- updates

    def record_ok(self, key: str, stats: SimStats) -> None:
        self._record(key, {"status": "ok", "stats": stats_to_dict(stats)})

    def record_error(self, key: str, error: Dict) -> None:
        self._record(key, {"status": "error", "error": error})

    def record_lease(self, event: Dict, *, durable: bool = True) -> None:
        """Append one lease-transition record (see :data:`LEASE_STATES`).

        ``event`` must carry at least :data:`LEASE_FIELDS`; the farm's
        broker is the only writer.  ``durable=False`` skips the fsync —
        used for throttled heartbeat lines, where losing the last one in
        a crash costs nothing (the next load still sees the grant)."""
        missing = [f for f in LEASE_FIELDS if f not in event]
        if missing:
            raise ValueError(f"lease record lacks fields: {missing}")
        if event["state"] not in LEASE_STATES:
            raise ValueError(f"unknown lease state {event['state']!r}")
        self.lease_events.append(event)
        self._append({"lease": event}, durable=durable)

    def _record(self, key: str, cell: Dict) -> None:
        self._cells[key] = cell
        self._append({"key": key, "cell": cell})

    def _append(self, record: Dict, *, durable: bool = True) -> None:
        if not self._initialized:
            self._rewrite()
            return
        append_checked_line(self.path, record, durable=durable)

    def _rewrite(self) -> None:
        """Atomically (re)write the whole journal: first record, or
        compaction after a salvage."""
        with atomic_writer(self.path) as handle:
            handle.write(checked_line(_header_record()))
            for key, cell in self._cells.items():
                handle.write(checked_line({"key": key, "cell": cell}))
            for event in self.lease_events:
                handle.write(checked_line({"lease": event}))
        self._initialized = True
