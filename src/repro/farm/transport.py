"""The lease protocol over one shared journal directory.

Every operation is a filesystem primitive from :mod:`repro.farm.lease`
— ``O_EXCL`` claims, atomic envelope rewrites, per-(attempt, worker)
result files — grouped into the two halves the farm needs: the
**worker half** (scan, claim, heartbeat, complete, release) and the
**broker half** (publish, observe leases, reclaim, collect results).
The broker stays the only policy authority; this class is mechanism
only.

The fencing token is the cell's **attempt number**: reclaim rewrites
the spec with a bumped attempt *before* unlinking the lease file, and
heartbeats check that fence before writing (see
:func:`repro.farm.lease.fence_lost`).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import List, Optional, Set

from repro.farm import lease as fsl
from repro.farm.lease import CellResult, CellSpec, FarmPaths, Lease
from repro.store import ArtifactError, quarantine_path, remove_file


@dataclass
class LeaseView:
    """One live lease as the *broker* observes it, with liveness ages
    on the local clock.

    ``torn`` marks an unreadable lease file (a claim torn by a crash
    mid-create); ``lease`` is None for those.
    """

    cid: str
    lease: Optional[Lease]
    #: Seconds since the last heartbeat (TTL expiry is ``age > ttl``).
    age: float = 0.0
    #: Seconds since the lease was granted (wall-clock timeout input).
    held: float = 0.0
    torn: bool = False


class FsTransport:
    """Lease protocol over one shared journal directory."""

    def __init__(self, root: str) -> None:
        self.paths = FarmPaths(root).ensure()
        self._seen_results: Set[str] = set()

    # ------------------------------------------------------ worker half

    @property
    def checkpoint_dir(self) -> str:
        return self.paths.checkpoints

    def list_cells(self) -> List[str]:
        """All published cell ids, sorted (deterministic scan order)."""
        return fsl.list_cells(self.paths)

    def read_cell(self, cid: str) -> CellSpec:
        """The current spec for ``cid``.  Raises ``KeyError`` when the
        cell is unknown (pruned mid-scan)."""
        try:
            return fsl.read_cell(self.paths.cell(cid))
        except FileNotFoundError:
            raise KeyError(cid) from None

    def done_cids(self) -> Set[str]:
        """Cell ids that already have at least one streamed result."""
        return set(fsl.list_results(self.paths))

    def leased_cids(self) -> Set[str]:
        """Cell ids with a lease file: live, torn, or fence-stale debris
        the broker has yet to scrub.  None of them is claimable."""
        return set(fsl.list_leases(self.paths))

    def claim(self, cell: CellSpec, worker: str, ttl: float) -> Optional[Lease]:
        """Try to lease ``cell``; None when somebody else holds it."""
        return fsl.claim(self.paths, cell, worker, ttl)

    def heartbeat(self, lease: Lease, *, cycle: int = 0, committed: int = 0,
                  state: Optional[str] = None) -> None:
        """Refresh ``lease``; raises :class:`~repro.farm.lease.LeaseLost`
        when the lease is fenced out, gone, or foreign."""
        fsl.heartbeat(self.paths, lease, cycle=cycle, committed=committed,
                      state=state)

    def release(self, lease: Lease) -> bool:
        """Give the lease back; False when it had already changed hands
        (never an error — release is best-effort by design)."""
        return fsl.release(self.paths, lease)

    def write_result(self, result: CellResult) -> None:
        """Stream one finished cell's result back.  Zombie duplicates
        are allowed on disk by design: each (attempt, worker) gets its
        own file and the broker verifies duplicates bit-identically at
        fold time."""
        fsl.write_result(self.paths, result)

    # ------------------------------------------------------ broker half

    def publish(self, cell: CellSpec) -> CellSpec:
        """Publish (or re-publish) one cell; returns the authoritative
        spec — a resumed farm keeps the prior attempt counter and
        backoff fence when the key matches."""
        cell_path = self.paths.cell(cell.cid)
        if os.path.exists(cell_path):
            try:
                prior = fsl.read_cell(cell_path)
                if prior.key == cell.key:
                    cell = prior
            except (ArtifactError, OSError):
                pass  # damaged spec: republish fresh
        fsl.write_cell(self.paths, cell)
        return cell

    def prune(self, keep: Set[str]) -> None:
        """Withdraw cells not in ``keep`` (and their leases) so workers
        never run work an earlier sweep already journaled."""
        for cid in fsl.list_cells(self.paths):
            if cid not in keep:
                for stale in (self.paths.cell(cid), self.paths.lease(cid)):
                    remove_file(stale)

    def set_aside_unreadable_results(self, cids: Set[str]) -> None:
        """Quarantine every result file of ``cids`` that does not read
        (another farm schema, or damaged bytes): :meth:`done_cids` counts
        files, so such a result would mark its cell done although the
        broker can never fold it."""
        for cid, path in fsl.iter_results(self.paths):
            if cid in cids:
                try:
                    fsl.read_result(path)
                except ArtifactError:
                    quarantine_path(path)

    def lease_views(self) -> List[LeaseView]:
        """Every live lease with its ages, sorted by cid."""
        now = time.time()
        views: List[LeaseView] = []
        for cid in fsl.list_leases(self.paths):
            lease_path = self.paths.lease(cid)
            try:
                lease = fsl.read_lease(lease_path)
            except FileNotFoundError:
                continue
            except ArtifactError:
                # Torn claim from a worker killed mid-create: the file's
                # mtime is the only liveness signal left.
                try:
                    age = now - os.path.getmtime(lease_path)
                except OSError:
                    continue
                views.append(LeaseView(cid=cid, lease=None, age=age,
                                       held=age, torn=True))
                continue
            views.append(LeaseView(
                cid=cid, lease=lease, age=lease.age(now),
                held=now - lease.granted_unix,
            ))
        return views

    def scrub_fenced(self, view: LeaseView) -> None:
        """Remove a lease the fence has already invalidated (its attempt
        predates the published spec's) — debris from a heartbeat that
        raced a reclaim, never a reclaim of live work.  Ownership-checked
        like release(): only the exact lease the broker observed is
        deleted, never one a new claim just created."""
        if view.lease is not None:
            fsl.release(self.paths, view.lease)

    def reclaim(self, cell: CellSpec, *,
                terminal: Optional[CellResult] = None) -> None:
        """Take the lease on ``cell`` back.  With ``terminal`` the retry
        budget is spent: the terminal error result is streamed instead
        of the cell being re-fenced.  Otherwise ``cell`` carries the
        bumped attempt and backoff fence, rewritten while the lease file
        still exists — no worker can claim the stale attempt in the gap,
        and in-flight heartbeats lose."""
        if terminal is not None:
            fsl.write_result(self.paths, terminal)
        else:
            fsl.write_cell(self.paths, cell)
        remove_file(self.paths.lease(cell.cid))

    def new_results(self) -> List[CellResult]:
        """Results not yet returned by a previous call (the fold
        cursor).  Unreadable result files are skipped, never raised —
        fsck surfaces them."""
        out: List[CellResult] = []
        for _cid, path in fsl.iter_results(self.paths):
            if path in self._seen_results:
                continue
            self._seen_results.add(path)
            try:
                out.append(fsl.read_result(path))
            except (ArtifactError, OSError):
                continue
        return out
