"""The farm's on-disk lease protocol: claim, heartbeat, release, expire.

A farm lives in one **shared journal directory** (local disk now, a
shared mount across hosts later).  Everything in it is written through
:mod:`repro.store` — atomic replaces and checksummed envelopes — so any
crash leaves either the old complete file or the new complete file, and
any corrupt artifact is a typed error, never silent damage::

    <root>/
      journal.json          broker-owned sweep journal (cell results +
                            the lease audit trail, v3 checked lines)
      cells/<cid>.json      one spec per sweep cell (broker-written;
                            rewritten on retry with a backoff fence)
      leases/<cid>.lease    at most one live lease per cell; *creating*
                            this file with O_EXCL is the claim — the
                            filesystem is the arbiter, so workers from
                            other shells/hosts can attach freely
      results/<cid>.json    SimStats (or a deterministic error) streamed
                            back by whichever worker finished the cell
      checkpoints/          mid-cell machine snapshots, keyed by cell —
                            a reclaimed cell resumes, never restarts

The lease state machine (audited into the journal, one checksummed line
per transition)::

            claim (O_EXCL create)
   PENDING ----------------------> LEASED --- result written --> COMPLETED
      ^                              |
      |   TTL expired / timeout /    | SIGTERM (spot eviction):
      |   stalled heartbeat          | checkpoint + mark "released"
      +------- ABANDONED <-----------+

Only the broker reclaims: workers never delete a lease they do not own,
and a worker that discovers its lease file gone or foreign (the
double-lease case) downgrades itself to a *zombie* — it may finish and
write a result, but completion folding is exactly-once in the broker,
so a zombie's duplicate is verified bit-identical and then dropped.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.retry import backoff_delay  # noqa: F401 — canonical home is
#                                        repro.retry; re-exported here for
#                                        the pre-transport import sites.
from repro.store import (
    ArtifactError,
    atomic_write_bytes,
    create_exclusive_bytes,
    envelope_bytes,
    read_json_artifact,
    remove_file,
)

#: Envelope kinds (and schema version) of the farm's artifacts.
CELL_KIND = "farm-cell"
LEASE_KIND = "farm-lease"
RESULT_KIND = "farm-result"
#: Schema 2 dropped the vector-column fields of cell specs and results.
#: Cells and results of another schema read as
#: :class:`~repro.store.SchemaMismatch`; leases kept their shape, so a
#: lease of either schema loads.
FARM_SCHEMA = 2


def cid_of(key: str) -> str:
    """Short, filename-safe identity of a cell key (the journal key is
    human-readable but contains ``|``)."""
    return hashlib.sha256(key.encode("utf-8")).hexdigest()[:16]


# ================================================================ layout


@dataclass(frozen=True)
class FarmPaths:
    """Where everything lives inside one farm root."""

    root: str

    @property
    def journal(self) -> str:
        return os.path.join(self.root, "journal.json")

    @property
    def cells(self) -> str:
        return os.path.join(self.root, "cells")

    @property
    def leases(self) -> str:
        return os.path.join(self.root, "leases")

    @property
    def results(self) -> str:
        return os.path.join(self.root, "results")

    @property
    def checkpoints(self) -> str:
        return os.path.join(self.root, "checkpoints")

    def cell(self, cid: str) -> str:
        return os.path.join(self.cells, f"{cid}.json")

    def lease(self, cid: str) -> str:
        return os.path.join(self.leases, f"{cid}.lease")

    def result(self, cid: str, attempt: int, worker: str) -> str:
        # One file per (cell, attempt, worker): a zombie's duplicate
        # result must coexist with the winner's so the broker can verify
        # it, never silently clobber it.
        safe = "".join(c if c.isalnum() or c in "_-" else "_" for c in worker)
        return os.path.join(self.results, f"{cid}.a{attempt}-{safe}.json")

    def ensure(self) -> "FarmPaths":
        for directory in (self.root, self.cells, self.leases,
                          self.results, self.checkpoints):
            os.makedirs(directory, exist_ok=True)
        return self


# ============================================================= cell specs


@dataclass
class CellSpec:
    """One enumerated sweep cell, as published to the workers."""

    cid: str
    key: str
    benchmark: str
    scheme: str
    width: int
    spec: Dict                 # RunSpec as a plain dict
    attempt: int = 1           # bumped by the broker on every reclaim
    not_before: float = 0.0    # unix-time backoff fence for retries
    #: How many of those attempts ended in a *voluntary* release (spot
    #: eviction, broker drain).  Releases are not cell failures, so the
    #: retry budget only counts ``attempt - 1 - released`` against them.
    released: int = 0

    def to_dict(self) -> Dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict) -> "CellSpec":
        return cls(**data)


def write_cell(paths: FarmPaths, cell: CellSpec, *, durable: bool = True) -> None:
    atomic_write_bytes(
        paths.cell(cell.cid),
        envelope_bytes(CELL_KIND, FARM_SCHEMA, cell.to_dict()),
        durable=durable,
    )


def read_cell(path: str) -> CellSpec:
    data, _meta = read_json_artifact(path, CELL_KIND,
                                     expected_schema=FARM_SCHEMA)
    return CellSpec.from_dict(data)


def list_cells(paths: FarmPaths) -> List[str]:
    """All published cell ids, sorted (workers scan in this order, so
    claim contention is resolved deterministically by O_EXCL)."""
    try:
        names = os.listdir(paths.cells)
    except FileNotFoundError:
        return []
    return sorted(n[:-5] for n in names if n.endswith(".json"))


# ================================================================ leases


@dataclass
class Lease:
    """The contents of one ``<cid>.lease`` file."""

    cid: str
    key: str
    worker: str
    attempt: int
    ttl: float
    granted_unix: float
    heartbeat_unix: float
    state: str = "leased"      # leased | released (eviction)
    cycle: int = 0             # live progress, piggybacked on heartbeats
    committed: int = 0
    #: Always 0: the attempt number is the fence (the broker bumps it
    #: before deleting the lease file).  Kept so the lease envelope
    #: stays byte-identical and existing farm roots keep loading.
    token: int = 0

    def to_dict(self) -> Dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict) -> "Lease":
        return cls(**data)

    def age(self, now: Optional[float] = None) -> float:
        return (now if now is not None else time.time()) - self.heartbeat_unix

    def expired(self, now: Optional[float] = None) -> bool:
        return self.age(now) > self.ttl


class LeaseLost(RuntimeError):
    """The worker's lease file vanished or changed hands (reclaimed by
    the broker, or a deliberately injected double-lease)."""


def claim(paths: FarmPaths, cell: CellSpec, worker: str, ttl: float, *,
          durable: bool = True) -> Optional[Lease]:
    """Try to lease ``cell`` for ``worker``.  The O_EXCL create *is* the
    mutual exclusion; returns None when somebody else holds the lease."""
    now = time.time()
    lease = Lease(
        cid=cell.cid, key=cell.key, worker=worker, attempt=cell.attempt,
        ttl=ttl, granted_unix=now, heartbeat_unix=now,
    )
    payload = envelope_bytes(LEASE_KIND, FARM_SCHEMA, lease.to_dict())
    if not create_exclusive_bytes(paths.lease(cell.cid), payload,
                                  durable=durable):
        return None
    return lease


def read_lease(path: str) -> Lease:
    data, _meta = read_json_artifact(path, LEASE_KIND)
    return Lease.from_dict(data)


def fence_lost(paths: FarmPaths, lease: Lease) -> Optional[str]:
    """Why ``lease`` is fenced out by the published cell spec, or None.

    The broker rewrites a cell's spec with a bumped ``attempt`` *before*
    deleting the lease file during reclaim, so the spec's attempt is a
    monotonic fence: once it exceeds the lease's attempt, reclaim has
    irrevocably begun and the holder has deterministically lost —
    however its in-flight heartbeat races the lease-file unlink."""
    try:
        cell = read_cell(paths.cell(lease.cid))
    except (FileNotFoundError, ArtifactError, OSError):
        # No spec to fence against (pruned cell, or mid-rewrite on a
        # non-atomic filesystem): the lease-file check below decides.
        return None
    if cell.attempt > lease.attempt:
        return (f"cell {lease.cid} was reclaimed: spec attempt "
                f"{cell.attempt} fences out lease attempt {lease.attempt}")
    return None


def heartbeat(paths: FarmPaths, lease: Lease, *, cycle: int = 0,
              committed: int = 0, state: Optional[str] = None,
              durable: bool = True) -> None:
    """Refresh the worker's lease — fence-check, then read-check-write:
    a heartbeat never overwrites a lease the worker no longer owns, and
    never renews once the broker has begun reclaiming.  Raises
    :class:`LeaseLost` when fenced out, gone, or foreign.

    The fence check closes the heartbeat-at-TTL-boundary race: the
    broker's reclaim rewrites the cell spec (attempt bumped) *before*
    unlinking the lease file, and heartbeats check that fence *before*
    writing — so a heartbeat landing in the same tick as reclaim either
    renews (reclaim had not started: no fence bump yet) or loses
    (:class:`LeaseLost`), deterministically.  Without it, the
    heartbeat's atomic rename could resurrect the lease file after the
    broker's unlink, leaving a zombie that believed it still held the
    cell."""
    path = paths.lease(lease.cid)
    fenced = fence_lost(paths, lease)
    if fenced is not None:
        raise LeaseLost(fenced)
    try:
        current = read_lease(path)
    except FileNotFoundError:
        raise LeaseLost(f"lease file for {lease.cid} vanished") from None
    except ArtifactError as exc:
        # A torn claim from a crashed rival would have been reclaimed by
        # the broker; treat unreadable as lost, never overwrite evidence.
        raise LeaseLost(f"lease file for {lease.cid} unreadable: {exc}") from exc
    if current.worker != lease.worker or current.attempt != lease.attempt:
        raise LeaseLost(
            f"lease for {lease.cid} now belongs to {current.worker!r} "
            f"(attempt {current.attempt})"
        )
    lease.heartbeat_unix = time.time()
    lease.cycle = cycle
    lease.committed = committed
    if state is not None:
        lease.state = state
    # Heartbeats are frequent and individually expendable: atomic, not
    # durable (a lost heartbeat merely looks like a slightly older one).
    atomic_write_bytes(
        path, envelope_bytes(LEASE_KIND, FARM_SCHEMA, lease.to_dict()),
        durable=durable and state is not None,
    )


def release(paths: FarmPaths, lease: Lease) -> bool:
    """Delete the lease file if (and only if) ``lease`` still owns it.
    Returns False when the lease had already changed hands."""
    path = paths.lease(lease.cid)
    try:
        current = read_lease(path)
    except (FileNotFoundError, ArtifactError):
        return False
    if current.worker != lease.worker or current.attempt != lease.attempt:
        return False
    return remove_file(path)


def list_leases(paths: FarmPaths) -> List[str]:
    try:
        names = os.listdir(paths.leases)
    except FileNotFoundError:
        return []
    return sorted(n[:-6] for n in names if n.endswith(".lease"))


# =============================================================== results


@dataclass
class CellResult:
    """What a worker streams back for one finished cell."""

    cid: str
    key: str
    worker: str
    attempt: int
    status: str                     # "ok" | "error"
    stats: Optional[Dict] = None    # SimStats.to_dict() when ok
    #: Failure class for error results, mirroring
    #: :class:`~repro.experiments.runner.CellError`: ``error`` —
    #: deterministic simulation failure (not retried); ``crash`` /
    #: ``timeout`` — broker-written terminal records after the retry
    #: budget ran out.
    kind: Optional[str] = None
    error_type: Optional[str] = None
    message: Optional[str] = None
    #: Cycle the simulation started from: 0 for a cold start, the
    #: checkpoint's cycle when the attempt resumed a reclaimed cell.
    start_cycle: int = 0
    elapsed: float = 0.0

    def to_dict(self) -> Dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict) -> "CellResult":
        return cls(**data)


def write_result(paths: FarmPaths, result: CellResult, *,
                 durable: bool = True) -> None:
    atomic_write_bytes(
        paths.result(result.cid, result.attempt, result.worker),
        envelope_bytes(RESULT_KIND, FARM_SCHEMA, result.to_dict()),
        durable=durable,
    )


def read_result(path: str) -> CellResult:
    data, _meta = read_json_artifact(path, RESULT_KIND,
                                     expected_schema=FARM_SCHEMA)
    return CellResult.from_dict(data)


def list_results(paths: FarmPaths) -> List[str]:
    """Cell ids with at least one streamed result (workers treat these
    cells as done; the broker folds and deduplicates the files)."""
    try:
        names = os.listdir(paths.results)
    except FileNotFoundError:
        return []
    return sorted({n.split(".", 1)[0] for n in names if n.endswith(".json")})


def iter_results(paths: FarmPaths) -> List[tuple]:
    """Every result file as ``(cid, path)``, sorted for determinism."""
    try:
        names = os.listdir(paths.results)
    except FileNotFoundError:
        return []
    return sorted(
        (n.split(".", 1)[0], os.path.join(paths.results, n))
        for n in names
        if n.endswith(".json")
    )


# ========================================================= shared helpers


@dataclass
class FarmSpec:
    """How to run a farm: topology, liveness budgets, and fault plans."""

    #: Shared journal directory (created on demand).
    root: str
    #: Locally spawned worker processes (0 = rely on attached workers).
    workers: int = 2
    #: Seconds without a heartbeat before a lease is reclaimed.
    lease_ttl: float = 30.0
    #: How often workers refresh their lease (<< lease_ttl).
    heartbeat_interval: float = 1.0
    #: Broker/worker filesystem poll cadence.
    poll_interval: float = 0.2
    #: Snapshot each cell every N cycles (None: keep the RunSpec's own
    #: setting).  Checkpoints are what make reclaim resume, not restart.
    checkpoint_every: Optional[int] = 2000
    #: Grace budget (seconds) an evicted/drained worker gets to
    #: checkpoint and release before it is killed outright.
    grace: float = 5.0
    #: Deterministic fault plans (see :mod:`repro.farm.inject`).
    inject: tuple = ()
    #: Journal at most one heartbeat line per cell per this many seconds.
    journal_heartbeat_every: float = 10.0
    #: Cap for the jittered retry backoff (seconds).
    backoff_cap: float = 30.0
    #: Respawn local workers that die, up to this many times total
    #: (None: never stop respawning — per-cell attempt budgets still
    #: bound the run).
    max_respawns: Optional[int] = None
    #: fsync the cell, lease and result files.  ``run_cells`` turns this
    #: off for the temporary root of a plain ``--jobs`` run, which no
    #: later run resumes: it is deleted when the call returns.
    durable: bool = True

    paths: FarmPaths = field(init=False, repr=False)
    #: Final :class:`~repro.farm.aggregate.FarmReport` of the most
    #: recent sweep driven with this spec (set by the broker).
    report: Optional[object] = field(init=False, default=None, repr=False)

    def __post_init__(self) -> None:
        self.paths = FarmPaths(self.root)
