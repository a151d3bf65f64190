"""In-flight instruction state (ROB entry + payload RAM record).

A :class:`SourceRecord` is exactly the paper's payload-RAM operand field:
either a physical register pointer (REG mode) or an immediate (IMM mode).
PRI's *ideal* WAR policy performs an associative search over these
records and patches REG pointers to immediates in place; the *refcount*
policy instead pins the register until the record's read completes.
"""

from __future__ import annotations

from typing import List, Optional

from repro.branch.unit import BranchPrediction
from repro.isa.instruction import MicroOp

SRC_REG = 0
SRC_IMM = 1


class SourceRecord:
    """One source operand as held in the payload RAM."""

    __slots__ = ("mode", "reg_class", "preg", "gen", "value", "read_done", "counted")

    def __init__(
        self,
        mode: int,
        reg_class,
        preg: int,
        gen: int,
        value: int,
        counted: bool,
    ) -> None:
        self.mode = mode
        self.reg_class = reg_class
        self.preg = preg  # -1 in IMM mode
        self.gen = gen
        self.value = value  # expected/delivered value
        self.read_done = False
        #: True while this record holds a consumer reference on ``preg``.
        self.counted = counted

    def patch_to_immediate(self, value: int) -> None:
        """Ideal-policy payload update: replace the stale pointer."""
        self.mode = SRC_IMM
        self.value = value
        self.preg = -1

    def __repr__(self) -> str:
        if self.mode == SRC_IMM:
            return f"imm({self.value:#x})"
        return f"p{self.preg}@g{self.gen}"


class InFlight:
    """Everything the pipeline tracks for one dispatched micro-op."""

    __slots__ = (
        "op",
        "seq",
        "trace_idx",
        "sources",
        "dest_preg",
        "dest_gen",
        "prev_preg",
        "prev_gen",
        "dest_vid",
        "prev_vid",
        "fetch_cycle",
        "rename_cycle",
        "issue_cycle",
        "complete_cycle",
        "missing",
        "in_scheduler",
        "issued",
        "completed",
        "squashed",
        "committed",
        "issue_token",
        "wait_token",
        "replays",
        "prediction",
        "checkpoint",
        "mispredicted",
        "mem_latency",
    )

    def __init__(self, op: MicroOp, seq: int, trace_idx: int, fetch_cycle: int) -> None:
        self.issue_token = 0
        self.wait_token = 0
        self.reinit(op, seq, trace_idx, fetch_cycle)

    def reinit(self, op: MicroOp, seq: int, trace_idx: int, fetch_cycle: int) -> None:
        """Reset for a fresh dynamic instance (object pooling).

        ``issue_token`` and ``wait_token`` deliberately survive: they are
        monotonic generation counters, so any stale reference to this
        object's previous life (a scheduler waiter entry, a timer event, a
        consumer record) fails its token check instead of corrupting the
        new instance.
        """
        self.op = op
        self.seq = seq
        self.trace_idx = trace_idx
        self.sources: List[SourceRecord] = []
        self.dest_preg = -1
        self.dest_gen = -1
        self.prev_preg = -1
        self.prev_gen = -1
        # Virtual-physical mode: encoded virtual tags (see machine._VID_FLAG).
        self.dest_vid = -1
        self.prev_vid = -1
        self.fetch_cycle = fetch_cycle
        self.rename_cycle = -1
        self.issue_cycle = -1
        self.complete_cycle = -1
        self.missing = 0
        self.in_scheduler = False
        self.issued = False
        self.completed = False
        self.squashed = False
        self.committed = False
        self.replays = 0
        self.prediction: Optional[BranchPrediction] = None
        self.checkpoint = None
        self.mispredicted = False
        self.mem_latency = 0

    @property
    def alive(self) -> bool:
        return not self.squashed

    def __repr__(self) -> str:
        flags = "".join(
            c
            for c, on in (
                ("S", self.in_scheduler),
                ("I", self.issued),
                ("C", self.completed),
                ("X", self.squashed),
                ("K", self.committed),
            )
            if on
        )
        return f"InFlight(#{self.seq} {self.op.op.name} [{flags}])"
