"""Physical register free list, tolerant of duplicate deallocation.

Section 3.2: when PRI frees a register early at retire, the *next writer*
of the same logical register will later try to free it again at commit
(it has no way to know about the early release).  The free-list manager
must ensure a register enters the list at most once per allocation.

Two allocation policies are supported:

``ordered``
    Always allocate the lowest-numbered free register (a min-heap).
    This is the default, and it is what makes the batched lockstep
    backend (:mod:`repro.vector`) possible: with lowest-first
    allocation, a machine with ``C2 > C1`` physical registers pops the
    *exact same* register sequence as a ``C1``-register machine until
    the moment the smaller machine's free list empties — the extra
    registers ``C1..C2-1`` are all numerically above every member of
    the shared free set, so the min never differs.  A capacity sweep
    can therefore share one simulation and fork only at the first
    register-exhaustion stall.

``fifo``
    Classic circular free list: registers come back out in the order
    they were released.  Kept for modeling comparisons; FIFO recycling
    breaks the capacity-monotonicity property above, so FIFO configs
    are never capacity-grouped by the vector backend.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Iterable, List, Optional

#: Allocation policies a free list (and a MachineConfig) may name.
ALLOC_POLICIES = ("ordered", "fifo")


class FreeList:
    """Free list over physical register numbers.

    ``release`` returns False (and does nothing) for a register that is
    already free — the duplicate-deallocation case.  Callers that want to
    treat duplicates as errors can check the return value.
    """

    def __init__(self, pregs: Iterable[int], policy: str = "fifo") -> None:
        if policy not in ALLOC_POLICIES:
            raise ValueError(
                f"unknown free-list policy {policy!r} "
                f"(expected one of {ALLOC_POLICIES})"
            )
        self.policy = policy
        initial = list(pregs)
        self._free = set(initial)
        if len(self._free) != len(initial):
            raise ValueError("duplicate registers in initial free list")
        if policy == "ordered":
            self._queue: List[int] = initial
            heapq.heapify(self._queue)
        else:
            self._queue = deque(initial)
        self.duplicate_releases = 0

    def __len__(self) -> int:
        return len(self._queue)

    def __contains__(self, preg: int) -> bool:
        return preg in self._free

    @property
    def empty(self) -> bool:
        return not self._queue

    def free_pregs(self) -> frozenset:
        """Snapshot of the registers currently free (for auditing)."""
        return frozenset(self._free)

    def assert_well_formed(self) -> None:
        """Audit hook: the queue and the membership set must agree
        exactly (a divergence means a double-free slipped past
        :meth:`release` or an entry was dropped)."""
        if len(self._queue) != len(self._free):
            raise AssertionError(
                f"free list corrupt: queue holds {len(self._queue)} entries "
                f"but membership set holds {len(self._free)}"
            )
        if set(self._queue) != self._free:
            raise AssertionError(
                "free list corrupt: queue and membership set name "
                "different registers"
            )

    def allocate(self) -> Optional[int]:
        """Pop the next free register (policy-defined order), or None
        when empty."""
        if not self._queue:
            return None
        if self.policy == "ordered":
            preg = heapq.heappop(self._queue)
        else:
            preg = self._queue.popleft()
        self._free.discard(preg)
        return preg

    def release(self, preg: int) -> bool:
        """Return a register to the list; duplicate releases are ignored.

        Returns True if the register was actually (re)freed.
        """
        if preg in self._free:
            self.duplicate_releases += 1
            return False
        if self.policy == "ordered":
            heapq.heappush(self._queue, preg)
        else:
            self._queue.append(preg)
        self._free.add(preg)
        return True

    # ------------------------------------------------- capacity extension

    def extend_range(self, start: int, stop: int) -> None:
        """Add fresh, never-allocated registers ``start..stop-1`` to the
        free set — the vector backend's fork-at-exhaustion step.  The new
        registers must not already be tracked."""
        fresh = range(start, stop)
        if any(p in self._free for p in fresh):
            raise ValueError("extension overlaps existing free registers")
        self._free.update(fresh)
        if self.policy == "ordered":
            for preg in fresh:
                heapq.heappush(self._queue, preg)
        else:
            self._queue.extend(fresh)
