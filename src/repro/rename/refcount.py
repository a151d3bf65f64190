"""Per-physical-register reference counting.

Two kinds of references keep a PRI-freed (or ER-freed) register alive:

* *consumer* references — taken when an instruction renames a source to
  the register, dropped when that instruction actually reads it in the
  register-read stage (Sections 3.3-3.4);
* *checkpoint* references — taken when a shadow map naming the register
  is created, dropped when the checkpoint retires or is discarded
  (Section 3.2, the ``ckptcount`` policy, modelled on Akkary et al.).
"""

from __future__ import annotations

from typing import List


class RefCountTable:
    """Counts for one register class, indexed by physical register."""

    def __init__(self, num_physical: int) -> None:
        self.num_physical = num_physical
        self._consumer: List[int] = [0] * num_physical
        self._checkpoint: List[int] = [0] * num_physical
        self._er_checkpoint: List[int] = [0] * num_physical

    def extend(self, new_num_physical: int) -> None:
        """Grow to ``new_num_physical`` registers, new counts all zero
        (the vector backend's fork-at-exhaustion step)."""
        added = new_num_physical - self.num_physical
        if added < 0:
            raise ValueError("refcount table cannot shrink")
        self._consumer.extend([0] * added)
        self._checkpoint.extend([0] * added)
        self._er_checkpoint.extend([0] * added)
        self.num_physical = new_num_physical

    # --------------------------------------------------------- consumers

    def add_consumer(self, preg: int) -> None:
        self._consumer[preg] += 1

    def drop_consumer(self, preg: int) -> None:
        count = self._consumer[preg]
        if count <= 0:
            raise RuntimeError(f"consumer refcount underflow on p{preg}")
        self._consumer[preg] = count - 1

    def consumers(self, preg: int) -> int:
        return self._consumer[preg]

    # ------------------------------------------------------- checkpoints

    def add_checkpoint_ref(self, preg: int) -> None:
        self._checkpoint[preg] += 1

    def drop_checkpoint_ref(self, preg: int) -> None:
        count = self._checkpoint[preg]
        if count <= 0:
            raise RuntimeError(f"checkpoint refcount underflow on p{preg}")
        self._checkpoint[preg] = count - 1

    def checkpoint_refs(self, preg: int) -> int:
        return self._checkpoint[preg]

    # ---------------------------------- commit-scoped (ER) checkpoints

    def add_er_checkpoint_ref(self, preg: int) -> None:
        self._er_checkpoint[preg] += 1

    def drop_er_checkpoint_ref(self, preg: int) -> None:
        count = self._er_checkpoint[preg]
        if count <= 0:
            raise RuntimeError(f"ER checkpoint refcount underflow on p{preg}")
        self._er_checkpoint[preg] = count - 1

    def er_checkpoint_refs(self, preg: int) -> int:
        return self._er_checkpoint[preg]

    # -------------------------------------------------- bulk operations
    #
    # Checkpoint release touches every pinned pointer of a class at
    # once; these bulk forms keep that on the fast path (one call per
    # class instead of one per register).  They return the registers
    # whose count reached zero, which is exactly the set the free
    # policies can act on.  (Checkpoint take adds its references inline,
    # in the same pass that collects them.)

    def drop_checkpoint_refs(self, pregs: List[int]) -> List[int]:
        """Drop one checkpoint ref per entry; return registers now at zero."""
        counts = self._checkpoint
        zeroed = []
        for preg in pregs:
            count = counts[preg]
            if count <= 0:
                raise RuntimeError(f"checkpoint refcount underflow on p{preg}")
            count -= 1
            counts[preg] = count
            if count == 0:
                zeroed.append(preg)
        return zeroed

    def drop_er_checkpoint_refs(self, pregs: List[int]) -> List[int]:
        """Drop one ER checkpoint ref per entry; return registers now at zero."""
        counts = self._er_checkpoint
        zeroed = []
        for preg in pregs:
            count = counts[preg]
            if count <= 0:
                raise RuntimeError(f"ER checkpoint refcount underflow on p{preg}")
            count -= 1
            counts[preg] = count
            if count == 0:
                zeroed.append(preg)
        return zeroed

    # ----------------------------------------------------------- queries

    def counts(self, preg: int) -> tuple:
        """(consumer, checkpoint, er_checkpoint) for one register."""
        return (self._consumer[preg], self._checkpoint[preg], self._er_checkpoint[preg])

    def snapshot(self) -> tuple:
        """Copies of all three count arrays (for auditing)."""
        return (list(self._consumer), list(self._checkpoint), list(self._er_checkpoint))

    def pinned(self, preg: int, include_checkpoints: bool = True) -> bool:
        """True while references forbid freeing ``preg``."""
        if self._consumer[preg] > 0:
            return True
        return include_checkpoints and self._checkpoint[preg] > 0

    def assert_clean(self) -> None:
        """Debug invariant: no dangling references (end of simulation)."""
        for preg in range(self.num_physical):
            if (
                self._consumer[preg]
                or self._checkpoint[preg]
                or self._er_checkpoint[preg]
            ):
                raise AssertionError(
                    f"p{preg} leaked refs: consumers={self._consumer[preg]} "
                    f"checkpoints={self._checkpoint[preg]} "
                    f"er={self._er_checkpoint[preg]}"
                )
