"""Physical register file model.

Tracks, per physical register: allocation state, an allocation
*generation* counter (used to detect stale references — the hardware
analogue is "this register now belongs to someone else", i.e. the WAR
violation of Figure 6), the value, the owning logical register and
producer, scheduling readiness, and the lifetime timestamps behind
Figures 1, 8 and 11.
"""

from __future__ import annotations

import enum
from heapq import heappop
from typing import List, Optional

from repro.core.stats import LifetimeStats
from repro.rename.free_list import FreeList

#: Sentinel cycle meaning "not yet known / never".
NEVER = 1 << 60


class RegState(enum.IntEnum):
    FREE = 0
    ALLOC = 1  # allocated, result not yet produced
    WRITTEN = 2  # result produced


# Plain-int mirrors: the state array stores and compares these on the
# per-instruction path (IntEnum equality carries avoidable overhead, and
# member access is a class attribute lookup per use).
_FREE = int(RegState.FREE)
_ALLOC = int(RegState.ALLOC)
_WRITTEN = int(RegState.WRITTEN)


class PhysRegFile:
    """One class's physical register file plus its free list."""

    __slots__ = (
        "num_regs",
        "name",
        "free_list",
        "state",
        "gen",
        "value",
        "lreg",
        "owner_seq",
        "ready_select",
        "pred_ready",
        "inline_pending",
        "retire_pending",
        "alloc_cycle",
        "write_cycle",
        "last_read",
        "allocated_count",
    )

    def __init__(self, num_regs: int, name: str = "int",
                 alloc_policy: str = "ordered") -> None:
        self.num_regs = num_regs
        self.name = name
        self.free_list = FreeList(range(num_regs), policy=alloc_policy)
        self.state: List[int] = [_FREE] * num_regs
        self.gen: List[int] = [0] * num_regs
        self.value: List[int] = [0] * num_regs
        self.lreg: List[int] = [-1] * num_regs
        self.owner_seq: List[int] = [-1] * num_regs
        # Scheduling: cycle at which a consumer *selected* then will read
        # valid data (select-time coordinates), and the speculative wakeup
        # broadcast cycle.
        self.ready_select: List[int] = [NEVER] * num_regs
        self.pred_ready: List[int] = [NEVER] * num_regs
        # PRI: register was inlined and awaits freeing.
        self.inline_pending: List[bool] = [False] * num_regs
        # PRI+ER hazard guard: between a producer's writeback and its
        # retire-stage significance check, the register must not be
        # ER-freed — a reallocation to the *same* logical register would
        # let the late map update pass the Figure-7 WAW check (which
        # compares physical register numbers) and clobber the new mapping.
        self.retire_pending: List[bool] = [False] * num_regs
        # Lifetime stamps.
        self.alloc_cycle: List[int] = [0] * num_regs
        self.write_cycle: List[Optional[int]] = [None] * num_regs
        self.last_read: List[Optional[int]] = [None] * num_regs
        self.allocated_count = 0

    # -------------------------------------------------------- allocation

    def allocate(self, lreg: int, owner_seq: int, cycle: int) -> Optional[int]:
        """Take a register off the free list for ``lreg``; None if empty."""
        # FreeList.allocate, inlined: this runs for every renamed writer.
        free_list = self.free_list
        queue = free_list._queue
        if not queue:
            return None
        if free_list.policy == "ordered":
            preg = heappop(queue)
        else:
            preg = queue.popleft()
        free_list._free.discard(preg)
        self.state[preg] = _ALLOC
        self.gen[preg] += 1
        self.lreg[preg] = lreg
        self.owner_seq[preg] = owner_seq
        self.ready_select[preg] = NEVER
        self.pred_ready[preg] = NEVER
        self.inline_pending[preg] = False
        self.retire_pending[preg] = False
        self.alloc_cycle[preg] = cycle
        self.write_cycle[preg] = None
        self.last_read[preg] = None
        self.allocated_count += 1
        return preg

    def allocate_architectural(self, lreg: int, value: int) -> int:
        """Reset-time allocation of a committed architectural register."""
        preg = self.allocate(lreg, owner_seq=-1, cycle=0)
        if preg is None:
            raise RuntimeError("not enough physical registers for architected state")
        self.write(preg, value, cycle=0)
        self.ready_select[preg] = 0
        self.pred_ready[preg] = 0
        return preg

    # ------------------------------------------------------------ access

    def write(self, preg: int, value: int, cycle: int) -> None:
        self.state[preg] = _WRITTEN
        self.value[preg] = value
        self.write_cycle[preg] = cycle

    def read_stamp(self, preg: int, cycle: int) -> None:
        last = self.last_read[preg]
        if last is None or cycle > last:
            self.last_read[preg] = cycle

    # ----------------------------------------------------------- release

    def release(self, preg: int, cycle: int, lifetimes: LifetimeStats = None) -> bool:
        """Free a register.  Duplicate releases (already free) return
        False and change nothing — the tolerance Section 3.2 requires."""
        if self.state[preg] == _FREE:
            # Keep the free list's duplicate accounting consistent.
            self.free_list.release(preg)
            return False
        if not self.free_list.release(preg):
            raise RuntimeError(f"p{preg} allocated but present in free list")
        if lifetimes is not None:
            lifetimes.record(
                self.alloc_cycle[preg],
                self.write_cycle[preg],
                self.last_read[preg],
                cycle,
            )
        self.state[preg] = _FREE
        self.inline_pending[preg] = False
        self.ready_select[preg] = NEVER
        self.pred_ready[preg] = NEVER
        self.allocated_count -= 1
        return True

    # ------------------------------------------------- capacity extension

    def extend(self, new_num_regs: int) -> None:
        """Grow the register file to ``new_num_regs``, the added registers
        free and never-allocated.

        Under the ``ordered`` allocation policy this reproduces, exactly,
        the state a ``new_num_regs``-register machine would have reached
        at this point — provided this file's free list has never emptied:
        lowest-first allocation never touches registers above the old
        capacity while lower ones are free, so the extras are fresh in
        both machines (see :mod:`repro.vector.engine`).
        """
        if new_num_regs < self.num_regs:
            raise ValueError(
                f"cannot shrink {self.name} register file "
                f"({self.num_regs} -> {new_num_regs})"
            )
        added = new_num_regs - self.num_regs
        if not added:
            return
        self.free_list.extend_range(self.num_regs, new_num_regs)
        self.state.extend([_FREE] * added)
        self.gen.extend([0] * added)
        self.value.extend([0] * added)
        self.lreg.extend([-1] * added)
        self.owner_seq.extend([-1] * added)
        self.ready_select.extend([NEVER] * added)
        self.pred_ready.extend([NEVER] * added)
        self.inline_pending.extend([False] * added)
        self.retire_pending.extend([False] * added)
        self.alloc_cycle.extend([0] * added)
        self.write_cycle.extend([None] * added)
        self.last_read.extend([None] * added)
        self.num_regs = new_num_regs

    # ----------------------------------------------------------- queries

    def is_free(self, preg: int) -> bool:
        return self.state[preg] == _FREE

    def gen_matches(self, preg: int, gen: int) -> bool:
        return self.gen[preg] == gen

    def allocated_pregs(self) -> List[int]:
        """Registers currently allocated (state != FREE), for auditing."""
        return [p for p, s in enumerate(self.state) if s != RegState.FREE]

    def assert_consistent(self) -> None:
        """Debug invariant: free list and state array agree, register by
        register (not just in aggregate)."""
        self.free_list.assert_well_formed()
        free_from_state = {
            p for p, s in enumerate(self.state) if s == RegState.FREE
        }
        free_from_list = self.free_list.free_pregs()
        if free_from_state != free_from_list:
            ghosts = sorted(free_from_list - free_from_state)
            missing = sorted(free_from_state - free_from_list)
            raise AssertionError(
                f"{self.name}: free list and state array disagree "
                f"(in list but allocated: {ghosts}; "
                f"free but not in list: {missing})"
            )
        if self.allocated_count != self.num_regs - len(free_from_state):
            raise AssertionError(
                f"{self.name}: allocated_count={self.allocated_count} but "
                f"state array has {self.num_regs - len(free_from_state)} "
                f"allocated registers"
            )
