"""Incremental aggregation: fold streamed cell results exactly once.

Workers may legitimately produce *more than one* result for a cell — a
stalled worker finishes as a zombie after its lease was reclaimed, a
double-lease races two workers to the same cell.  The farm's contract is
that each cell is **folded exactly once** into the figures, and that any
duplicate is *verified* against the folded result (the simulator is
deterministic, so duplicates must be bit-identical; a divergent
duplicate is a real correctness finding, counted and surfaced, never
silently dropped).

The :class:`FarmReport` carries the counters the chaos suite asserts
on: completions, failures, duplicates, divergences, reclaims,
evictions, resumes, and — the one that must stay zero whenever a
checkpoint existed — ``cold_restarts``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.farm.lease import CellResult


@dataclass
class FarmReport:
    """Live (and final) accounting of one farmed sweep."""

    #: Cells published to the farm this run.
    cells: int = 0
    #: Cells folded with a SimStats payload.
    completed: int = 0
    #: Cells folded with a terminal error.
    failed: int = 0
    #: Extra results for already-folded cells, verified bit-identical.
    duplicates: int = 0
    #: Extra results that *differed* from the folded result (bug!).
    divergent: int = 0
    #: Leases reclaimed after TTL expiry or wall-clock timeout.
    reclaims: int = 0
    #: Leases handed back voluntarily (spot eviction / graceful drain).
    evictions: int = 0
    #: Folded attempts that resumed from a checkpoint (start_cycle > 0).
    resumes: int = 0
    #: Folded attempts that started from cycle 0 *despite* a checkpoint
    #: existing when the cell was reclaimed.  The chaos suite pins this
    #: to zero: reclaim must resume, never restart.
    cold_restarts: int = 0
    #: Local worker processes respawned after dying.
    respawns: int = 0
    divergent_keys: List[str] = field(default_factory=list)

    @property
    def folded(self) -> int:
        return self.completed + self.failed

    def to_dict(self) -> Dict:
        return dataclasses.asdict(self)

    def progress_line(self, active_leases: int = 0) -> str:
        """One human line for live progress displays."""
        parts = [f"{self.folded}/{self.cells} cells",
                 f"{active_leases} leased"]
        if self.failed:
            parts.append(f"{self.failed} failed")
        if self.reclaims:
            parts.append(f"{self.reclaims} reclaimed")
        if self.evictions:
            parts.append(f"{self.evictions} evicted")
        if self.resumes:
            parts.append(f"{self.resumes} resumed")
        if self.duplicates:
            parts.append(f"{self.duplicates} deduplicated")
        if self.divergent:
            parts.append(f"{self.divergent} DIVERGENT")
        if self.cold_restarts:
            parts.append(f"{self.cold_restarts} COLD-RESTARTED")
        return "farm: " + ", ".join(parts)


class Aggregator:
    """Exactly-once folding of :class:`~repro.farm.lease.CellResult`
    envelopes, with duplicate verification and resume accounting."""

    def __init__(self, report: Optional[FarmReport] = None) -> None:
        self.report = report or FarmReport()
        self.folded: Dict[str, CellResult] = {}       # cid -> first result
        #: (cid, attempt) pairs the broker expects to resume — a
        #: checkpoint existed when the attempt's cell was reclaimed.
        self.expect_resume: Set[tuple] = set()

    def is_folded(self, cid: str) -> bool:
        return cid in self.folded

    def fold(self, result: CellResult) -> str:
        """Fold one streamed result.  Returns what happened:
        ``"folded"`` (first result for the cell — count it and pass it
        on), ``"duplicate"`` (bit-identical re-completion, dropped), or
        ``"divergent"`` (a duplicate that *differs* — counted, flagged,
        still dropped so the first fold stays authoritative)."""
        first = self.folded.get(result.cid)
        if first is not None:
            if self._identical(first, result):
                self.report.duplicates += 1
                return "duplicate"
            self.report.divergent += 1
            self.report.divergent_keys.append(result.key)
            return "divergent"
        self.folded[result.cid] = result
        if result.status == "ok":
            self.report.completed += 1
            if result.start_cycle > 0:
                self.report.resumes += 1
            elif (result.cid, result.attempt) in self.expect_resume:
                self.report.cold_restarts += 1
        else:
            self.report.failed += 1
        return "folded"

    @staticmethod
    def _identical(a: CellResult, b: CellResult) -> bool:
        """Bit-identical *outcome*: the stats payload for completions,
        the error identity for failures.  Worker name, attempt number,
        wall-clock, and resume point legitimately differ between the
        folded result and a zombie's duplicate."""
        if a.status != b.status:
            return False
        if a.status == "ok":
            return a.stats == b.stats
        return a.error_type == b.error_type
