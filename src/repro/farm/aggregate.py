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
on: completions, failures, duplicates, divergences (which must stay
zero), reclaims, evictions and respawns.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional

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
    #: Leases reclaimed after TTL expiry, or from a local worker that
    #: died holding them (a crash).
    reclaims: int = 0
    #: Leases handed back voluntarily (spot eviction / graceful drain).
    evictions: int = 0
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
        if self.duplicates:
            parts.append(f"{self.duplicates} deduplicated")
        if self.divergent:
            parts.append(f"{self.divergent} DIVERGENT")
        return "farm: " + ", ".join(parts)


class Aggregator:
    """Exactly-once folding of :class:`~repro.farm.lease.CellResult`
    envelopes, with duplicate verification."""

    def __init__(self, report: Optional[FarmReport] = None) -> None:
        self.report = report or FarmReport()
        self.folded: Dict[str, CellResult] = {}       # cid -> first result

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
        else:
            self.report.failed += 1
        return "folded"

    @staticmethod
    def _identical(a: CellResult, b: CellResult) -> bool:
        """Bit-identical *outcome*: the stats payload for completions,
        the error identity for failures.  Worker name, attempt number
        and wall-clock legitimately differ between the folded result and
        a zombie's duplicate."""
        if a.status != b.status:
            return False
        if a.status == "ok":
            return a.stats == b.stats
        return a.error_type == b.error_type
