"""Branch target buffer: set-associative PC → target cache."""

from __future__ import annotations

from typing import Optional


class BranchTargetBuffer:
    """A set-associative BTB with LRU replacement (Table 1: 1k-entry,
    4-way).

    ``lookup`` returns the cached target or None (a taken branch with a
    BTB miss costs a fetch redirect even when the direction was predicted
    correctly).
    """

    def __init__(self, num_entries: int = 1024, assoc: int = 4) -> None:
        if num_entries % assoc:
            raise ValueError("entries must be divisible by associativity")
        self.num_sets = num_entries // assoc
        if self.num_sets & (self.num_sets - 1):
            raise ValueError("number of sets must be a power of two")
        self.assoc = assoc
        # Each set is an ordered sequence of (tag, target); index 0 is
        # MRU.  A set starts as a tuple shared with other BTBs (the empty
        # set, or a warm image's, see BranchUnit.load_state) and becomes
        # a list of this BTB's own on its first write.
        self._sets = [()] * self.num_sets

    def lookup(self, pc: int) -> Optional[int]:
        tag = pc >> 2
        index = tag & (self.num_sets - 1)
        entries = self._sets[index]
        for i, (t, target) in enumerate(entries):
            if t == tag:
                if i:
                    if entries.__class__ is tuple:
                        entries = self._sets[index] = list(entries)
                    entries.insert(0, entries.pop(i))
                return target
        return None

    def install(self, pc: int, target: int) -> None:
        tag = pc >> 2
        index = tag & (self.num_sets - 1)
        entries = self._sets[index]
        if entries.__class__ is tuple:
            entries = self._sets[index] = list(entries)
        for i, (t, _) in enumerate(entries):
            if t == tag:
                entries.pop(i)
                break
        entries.insert(0, (tag, target))
        if len(entries) > self.assoc:
            entries.pop()
