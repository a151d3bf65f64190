"""Rename-map checkpoints for control speculation (Sections 2.3, 3.2).

A checkpoint is taken at every renamed branch (as in the MIPS R10000) and
holds: shadow copies of both map tables, the return-address stack, and
the global branch history.  Each checkpoint also takes references on
every physical register its shadow maps name, in two scopes:

* **resolve-scoped** references (``checkpoint_refs``) — dropped as soon as
  the branch resolves, when the shadow map can no longer be a recovery
  target.  This is PRI's ``ckptcount`` policy, modelled on the aggressive
  checkpoint reclamation of Akkary et al. [29].
* **commit-scoped** references (``er_checkpoint_refs``) — dropped only
  when the branch commits (or is squashed).  This models the early-release
  scheme's requirement that the *unmap flag be true for current and
  checkpointed copies* [27]: ER predates checkpoint reference counting,
  and propagating unmap flags into live shadow copies is exactly the
  update complexity Section 3.2 calls non-trivial, so the conservative
  implementation keeps a register pinned while any shadow copy from an
  uncommitted branch still names it.

For PRI's ``lazy`` policy, :meth:`CheckpointManager.patch_inlined` walks
the live checkpoints and rewrites stale pointers to the inlined immediate
(modelling the background copy logic of Section 3.2), dropping their
resolve-scoped references so the register can free immediately.

Shadow copies are stored as ``(modes, values)`` parallel ``int`` lists
(the representation of :meth:`repro.rename.map_table.RenameMapTable.snapshot`)
— a checkpoint is taken for *every* renamed branch, so creating it must
be two C-level list copies, not per-entry object construction.
"""

from __future__ import annotations

from itertools import compress
from operator import not_
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.isa.opcodes import RegClass
from repro.rename.map_table import MODE_POINTER, RenameMapTable
from repro.rename.refcount import RefCountTable

#: ``_MAPPED(v)`` is ``v >= 0`` for a map value: a register, not unmapped.
_MAPPED = (-1).__lt__

if TYPE_CHECKING:
    from repro.core.regfile import PhysRegFile

#: A reference-drop handler: ``on_unref(reg_class, preg)``.
Unref = Callable[[RegClass, int], None]


class Checkpoint:
    """Shadow state for one renamed branch."""

    __slots__ = (
        "branch_seq",
        "snapshots",
        "gens",
        "pins",
        "ras",
        "history",
        "resolve_released",
        "commit_released",
    )

    def __init__(self, branch_seq, snapshots, ras, history, gens=None):
        self.branch_seq = branch_seq
        #: Mapping RegClass -> (modes, values) parallel int lists.
        self.snapshots: Dict[RegClass, Tuple[List[int], List[int]]] = snapshots
        #: Mapping RegClass -> list of pregs this checkpoint holds
        #: references on, computed once at take time (when the manager
        #: tracks references) instead of re-scanning the shadow maps on
        #: every release.  ``patch_inlined`` keeps it in sync.  ``None``
        #: when references are untracked.
        self.pins: Optional[Dict[RegClass, List[int]]] = None
        #: Mapping RegClass -> list[int], parallel to ``snapshots``: the
        #: allocation generation of each POINTER entry at snapshot time
        #: (-1 for immediates, or when the manager has no ``regfiles``).
        #: The auditor uses this to prove a checkpointed pointer still
        #: names the same allocation it was taken against.
        self.gens: Optional[Dict[RegClass, List[int]]] = gens
        self.ras: List[int] = ras
        self.history: int = history
        self.resolve_released = False
        self.commit_released = False

    def pointer_entries(self, reg_class: RegClass) -> List[int]:
        modes, values = self.snapshots[reg_class]
        return [
            v for m, v in zip(modes, values) if m == MODE_POINTER and v >= 0
        ]

    def pointer_items(self, reg_class: RegClass) -> List[tuple]:
        """(lreg, preg, snapshot_gen) for every live POINTER entry."""
        modes, values = self.snapshots[reg_class]
        gens = self.gens[reg_class] if self.gens is not None else None
        return [
            (lreg, v, gens[lreg] if gens is not None else -1)
            for lreg, (m, v) in enumerate(zip(modes, values))
            if m == MODE_POINTER and v >= 0
        ]


class CheckpointManager:
    """Bounded stack of checkpoints, oldest first.

    The methods that drop references take an optional ``on_unref``
    handler, called as ``on_unref(reg_class, preg)`` when a drop brings
    that scope's count on ``preg`` to zero, so the machine can re-check
    pending early frees.  (Drops that leave the count positive cannot
    unblock a free: both PRI and ER freeing require the relevant count
    to reach zero, so non-zero drops are not reported.)  The handler is
    passed per call, never stored: a manager holding a bound method of
    its machine would make every machine a reference cycle that only
    the cyclic garbage collector can free.
    """

    def __init__(
        self,
        capacity: int,
        maps: Dict[RegClass, RenameMapTable],
        refcounts: Dict[RegClass, RefCountTable],
        track_er_refs: bool = False,
        track_refs: bool = True,
        regfiles: Optional[Dict[RegClass, "PhysRegFile"]] = None,
    ) -> None:
        self.capacity = capacity
        self.maps = maps
        self.refcounts = refcounts
        self.track_er_refs = track_er_refs
        #: Disabled in virtual-physical mode, where map pointers name
        #: unbounded virtual tags rather than physical registers — and in
        #: plain baseline machines, where nothing ever consults the
        #: counts (no PRI, no ER, no auditor).
        self.track_refs = track_refs
        #: The machine's register files, whose live allocation
        #: generations each take stamps into the snapshot; None skips
        #: stamping.
        self.regfiles = regfiles
        self._stack: List[Checkpoint] = []
        #: Checkpoints released from the stack (branch resolved) that
        #: still pin commit-scoped ER references.  The auditor walks this
        #: to recompute ``er_checkpoint`` counts.
        self._er_pending: List[Checkpoint] = []
        self.taken = 0
        self.patches_applied = 0

    def __len__(self) -> int:
        return len(self._stack)

    @property
    def full(self) -> bool:
        return len(self._stack) >= self.capacity

    def checkpoints(self) -> List[Checkpoint]:
        return list(self._stack)

    def er_pending(self) -> List[Checkpoint]:
        """Checkpoints whose commit-scoped (ER) references are still
        outstanding — a superset of the stack under ER tracking."""
        return list(self._er_pending)

    # ------------------------------------------------------------ create

    def take(self, branch_seq: int, ras: List[int], history: int) -> Optional[Checkpoint]:
        """Checkpoint the current rename state; None when full (the
        renamer must stall)."""
        stack = self._stack
        if len(stack) >= self.capacity:
            return None
        # One pass per class: copy the table, then (when references are
        # tracked) collect its pinned pointers and count them, both
        # scopes in one loop.  A checkpoint is taken per renamed branch.
        track_refs = self.track_refs
        track_er = self.track_er_refs
        regfiles = self.regfiles
        snapshots = {}
        pins = {} if track_refs else None
        gens = {} if regfiles is not None else None
        for cls, table in self.maps.items():
            modes = table.modes[:]
            values = table.values[:]
            snapshots[cls] = (modes, values)
            if gens is not None:
                gen_table = regfiles[cls].gen
                gens[cls] = [
                    gen_table[v] if m == MODE_POINTER and v >= 0 else -1
                    for m, v in zip(modes, values)
                ]
            if track_refs:
                # The POINTER entries' registers, skipping unmapped (-1)
                # ones, without a Python-level loop: MODE_POINTER is 0,
                # so ``not mode`` selects them.
                pinned = list(filter(_MAPPED, compress(values, map(not_, modes))))
                pins[cls] = pinned
                counts = self.refcounts[cls]
                checkpoint_counts = counts._checkpoint
                if track_er:
                    er_counts = counts._er_checkpoint
                    for preg in pinned:
                        checkpoint_counts[preg] += 1
                        er_counts[preg] += 1
                else:
                    for preg in pinned:
                        checkpoint_counts[preg] += 1
        ckpt = Checkpoint(branch_seq, snapshots, ras, history, gens)
        if track_refs:
            ckpt.pins = pins
            if track_er:
                self._er_pending.append(ckpt)
        stack.append(ckpt)
        self.taken += 1
        return ckpt

    # ----------------------------------------------------------- release

    def _drop_resolve_refs(self, ckpt: Checkpoint,
                           on_unref: Optional[Unref] = None) -> None:
        if ckpt.resolve_released:
            return
        ckpt.resolve_released = True
        if not self.track_refs:
            return
        for cls in ckpt.snapshots:
            zeroed = self.refcounts[cls].drop_checkpoint_refs(ckpt.pins[cls])
            if on_unref is not None:
                for preg in zeroed:
                    on_unref(cls, preg)

    def _drop_commit_refs(self, ckpt: Checkpoint,
                          on_unref: Optional[Unref] = None) -> None:
        if ckpt.commit_released or not self.track_er_refs or not self.track_refs:
            ckpt.commit_released = True
            return
        ckpt.commit_released = True
        try:
            self._er_pending.remove(ckpt)
        except ValueError:
            pass
        for cls in ckpt.snapshots:
            zeroed = self.refcounts[cls].drop_er_checkpoint_refs(ckpt.pins[cls])
            if on_unref is not None:
                for preg in zeroed:
                    on_unref(cls, preg)

    def release(self, ckpt: Checkpoint, on_unref: Optional[Unref] = None) -> None:
        """The branch resolved: the shadow map can never be a recovery
        target again.  Drops resolve-scoped references and removes the
        checkpoint from the stack; commit-scoped (ER) references persist
        until :meth:`commit_retire` or :meth:`discard`."""
        try:
            self._stack.remove(ckpt)
        except ValueError:
            pass
        self._drop_resolve_refs(ckpt, on_unref)

    def commit_retire(self, ckpt: Checkpoint, on_unref: Optional[Unref] = None) -> None:
        """The branch committed: drop the ER (commit-scoped) references."""
        self._drop_commit_refs(ckpt, on_unref)

    def discard(self, ckpt: Checkpoint, on_unref: Optional[Unref] = None,
                on_resolve_unref: Optional[Unref] = None) -> None:
        """The branch was squashed: drop everything.  ``on_unref`` hears
        the commit-scoped drops, ``on_resolve_unref`` the resolve-scoped
        ones (as :meth:`commit_retire` and :meth:`release` would)."""
        self._drop_resolve_refs(ckpt, on_resolve_unref)
        self._drop_commit_refs(ckpt, on_unref)

    def recover(self, ckpt: Checkpoint, on_unref: Optional[Unref] = None,
                on_resolve_unref: Optional[Unref] = None) -> None:
        """Misprediction recovery to ``ckpt``: restore the maps from its
        shadow copies and discard every *younger* checkpoint (handlers as
        in :meth:`discard`).  ``ckpt`` itself stays in the stack — the
        machine releases it right after (the branch has resolved)."""
        index = self._stack.index(ckpt)
        for cls, table in self.maps.items():
            table.restore(ckpt.snapshots[cls])
        for discarded in self._stack[index + 1:]:
            self._drop_resolve_refs(discarded, on_resolve_unref)
            self._drop_commit_refs(discarded, on_unref)
        del self._stack[index + 1:]

    # ----------------------------------------------------- lazy patching

    def patch_inlined(self, reg_class: RegClass, preg: int, value: int) -> int:
        """Rewrite stale pointers to ``preg`` in all live checkpointed
        copies to the inlined immediate (the lazy-update policy), dropping
        their resolve-scoped references.  Returns the entries patched."""
        counts = self.refcounts[reg_class]
        patched = 0
        for ckpt in self._stack:
            modes, values = ckpt.snapshots[reg_class]
            for lreg, (m, v) in enumerate(zip(modes, values)):
                if m == MODE_POINTER and v == preg:
                    modes[lreg] = 1  # MODE_IMMEDIATE
                    values[lreg] = value
                    counts.drop_checkpoint_ref(preg)
                    if self.track_er_refs:
                        counts.drop_er_checkpoint_ref(preg)
                    if ckpt.pins is not None:
                        ckpt.pins[reg_class].remove(preg)
                    patched += 1
        self.patches_applied += patched
        return patched

    def clear(self) -> None:
        """Drop all checkpoints (end of run), releasing their references."""
        for ckpt in self._stack:
            self._drop_resolve_refs(ckpt)
        for ckpt in list(self._er_pending):
            self._drop_commit_refs(ckpt)
        for ckpt in self._stack:
            self._drop_commit_refs(ckpt)
        self._stack.clear()
