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

On-disk format (version 3) — a :class:`~repro.store.integrity.CheckedLog`
(:data:`SWEEP_LOG`): one header record followed by one record per
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
prefix is salvaged).  Those rules are the log's; this module owns what
its records mean, and :func:`check_journal_record`, the one check of a
record's shape that the writer, the loader and fsck share: a
digest-valid record it rejects fails the load with
:class:`~repro.store.errors.MalformedRecord`.

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
from repro.store.atomic import durable_replace
from repro.store.errors import MalformedRecord, SchemaMismatch
from repro.store.integrity import CheckedLog, LogFormat

_VERSION = 3

#: ``format`` tag of the journal header record (fsck's sniffing key).
JOURNAL_FORMAT = "repro-sweep-journal"

#: The lease state machine of the sweep farm (:mod:`repro.farm`), in
#: lifecycle order.  ``leased`` — a worker claimed the cell;
#: ``heartbeat`` — periodic liveness (journaled at a throttled rate);
#: ``completed`` — the cell's result was folded; ``abandoned`` — the
#: lease expired or its worker died (stall, crash) and the cell became
#: claimable again; ``released`` — the holder gave the cell back voluntarily
#: (graceful drain or spot eviction) without completing it.
LEASE_STATES = ("leased", "heartbeat", "completed", "abandoned", "released")

#: Fields every journaled lease record must carry.
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


def check_journal_record(record) -> Optional[str]:
    """Why ``record`` is not a sweep-journal record, or ``None`` when it
    is one: a cell record carries ``key`` and ``cell``, a lease record
    carries :data:`LEASE_FIELDS` and one of :data:`LEASE_STATES`.  The
    writer, the loader and fsck all ask this one function."""
    if not isinstance(record, dict):
        return "journal record is not an object"
    if "lease" not in record:
        if "key" not in record or "cell" not in record:
            return "journal record lacks key/cell fields"
        return None
    lease = record["lease"]
    if not isinstance(lease, dict):
        return "lease record is not an object"
    missing = [f for f in LEASE_FIELDS if f not in lease]
    if missing:
        return f"lease record lacks fields: {missing}"
    if lease["state"] not in LEASE_STATES:
        return f"unknown lease state {lease['state']!r}"
    return None


#: The sweep journal as a :class:`~repro.store.integrity.CheckedLog`.
SWEEP_LOG = LogFormat(JOURNAL_FORMAT, _VERSION, "sweep-journal",
                      check_journal_record)


def _document_version(path: str):
    """The version of a v1/v2 whole-document JSON journal; corrupt JSON
    is typed, never a bare ``json.JSONDecodeError``."""
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
    return doc.get("version") if isinstance(doc, dict) else None


class SweepJournal:
    """Journal of completed/failed sweep cells, persisted (appended and
    fsynced) after every update."""

    def __init__(self, path: str, archive_incompatible: bool = False) -> None:
        self.path = path
        self._log = CheckedLog(path, SWEEP_LOG)
        self._cells: Dict[str, Dict] = {}
        #: Every lease transition journaled so far, in append order (the
        #: sweep farm's audit trail; see :data:`LEASE_STATES`).
        self.lease_events: List[Dict] = []
        #: Path the incompatible predecessor was moved to, if any.
        self.archived: Optional[str] = None
        self._load(path, archive_incompatible)
        #: ``(line, reason)`` of a torn tail dropped at load, if any.
        self.salvaged: Optional[Tuple[int, str]] = self._log.salvaged

    # ------------------------------------------------------------ load

    def _load(self, path: str, archive_incompatible: bool) -> None:
        if os.path.exists(path):
            with open(path, "rb") as handle:
                head = handle.read(64).lstrip()
            if head.startswith(b"{"):
                # A v1/v2 whole-document journal: incompatible by
                # construction, since v3 is the line format.
                self._incompatible(_document_version(path),
                                   archive_incompatible)
                return
        try:
            records = self._log.load()
        except SchemaMismatch as exc:
            self._incompatible(exc.found, archive_incompatible)
            return
        for record in records:
            if "lease" in record:
                self.lease_events.append(record["lease"])
            else:
                self._cells[record["key"]] = record["cell"]

    def _incompatible(self, version, archive_incompatible: bool) -> None:
        """Another version's journal: raise, or move it aside and start
        fresh."""
        if not archive_incompatible:
            raise ValueError(
                f"journal {self.path!r} has version {version}, expected "
                f"{_VERSION}; delete it, move it aside, or pass "
                f"archive_incompatible=True to archive it and start "
                f"a fresh sweep"
            )
        self._archive(self.path, version)

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
        self._log.append({"lease": event}, durable=durable)
        self.lease_events.append(event)

    def _record(self, key: str, cell: Dict) -> None:
        self._log.append({"key": key, "cell": cell})
        self._cells[key] = cell
