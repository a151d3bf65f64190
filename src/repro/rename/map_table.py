"""RAM rename map table with dual addressing modes (Figure 3 + Section 3).

A conventional RAM map entry holds a physical register number.  With
physical register inlining, each entry gains a mode bit: *pointer* mode
holds a physical register number, *immediate* mode holds a narrow value
directly.  The table is indexed by logical register number; shadow copies
(checkpoints) are handled by :mod:`repro.rename.checkpoints`.

Storage layout: the table keeps two parallel ``int`` lists (``modes``,
``values``) rather than a list of entry objects.  The cycle-level core
reads and checkpoints the map for every renamed instruction and branch,
so snapshots must be C-level list copies, not per-entry object
construction.  :class:`MapEntry` remains as the value type returned by
:meth:`RenameMapTable.lookup` for callers outside the hot path.
"""

from __future__ import annotations

import enum
from typing import List, Tuple

from repro.isa.values import fits_in_bits, is_all_zeros_or_ones


class EntryMode(enum.IntEnum):
    """Addressing mode of one map entry (the mode bit of Section 1)."""

    POINTER = 0
    IMMEDIATE = 1


#: Plain ints for the hot path (IntEnum comparison costs a method call).
MODE_POINTER = int(EntryMode.POINTER)
MODE_IMMEDIATE = int(EntryMode.IMMEDIATE)


class MapEntry:
    """One rename map entry: (mode, payload).

    In POINTER mode ``value`` is a physical register number; in IMMEDIATE
    mode it is the inlined (full-precision) value.  The width check that
    the value actually fits in the map's storage happens at inline time
    (:meth:`RenameMapTable.try_inline`), so the entry itself can store the
    semantic value.
    """

    __slots__ = ("mode", "value")

    def __init__(self, mode: EntryMode, value: int) -> None:
        self.mode = mode
        self.value = value

    @property
    def is_immediate(self) -> bool:
        return self.mode == EntryMode.IMMEDIATE

    def __repr__(self) -> str:
        kind = "imm" if self.is_immediate else "p"
        return f"<{kind}:{self.value}>"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MapEntry)
            and self.mode == other.mode
            and self.value == other.value
        )


class RenameMapTable:
    """RAM map table for one register class.

    ``value_bits`` is the number of value bits an IMMEDIATE entry can hold
    (Table 1: 7 for the 4-wide model, 10 for the 8-wide).  For FP maps the
    convention differs: an FP register can be inlined only when its 64-bit
    pattern is all zeroes or all ones, so ``fp_mode=True`` switches the
    width check accordingly.

    The ``modes`` and ``values`` lists are public on purpose: the rename
    stage indexes them directly instead of materializing a
    :class:`MapEntry` per source operand.
    """

    def __init__(self, num_logical: int, value_bits: int, fp_mode: bool = False) -> None:
        if num_logical <= 0:
            raise ValueError("map table needs at least one entry")
        self.num_logical = num_logical
        self.value_bits = value_bits
        self.fp_mode = fp_mode
        self.modes: List[int] = [MODE_POINTER] * num_logical
        self.values: List[int] = [-1] * num_logical

    # ------------------------------------------------------------- reads

    def lookup(self, lreg: int) -> MapEntry:
        """Current mapping for a logical register, as a value object.

        Allocates a fresh :class:`MapEntry`; hot-path callers should read
        ``modes[lreg]`` / ``values[lreg]`` directly.
        """
        return MapEntry(EntryMode(self.modes[lreg]), self.values[lreg])

    def pointer_of(self, lreg: int) -> int:
        """Physical register the entry points at, or -1 if inlined/unset."""
        if self.modes[lreg] == MODE_IMMEDIATE:
            return -1
        return self.values[lreg]

    def value_fits(self, value: int) -> bool:
        """Would ``value`` fit in this map's immediate storage?"""
        if self.fp_mode:
            return is_all_zeros_or_ones(value)
        return fits_in_bits(value, self.value_bits)

    # ------------------------------------------------------------ writes

    def set_pointer(self, lreg: int, preg: int) -> None:
        """Rename-stage write: map ``lreg`` to physical register ``preg``."""
        self.modes[lreg] = MODE_POINTER
        self.values[lreg] = preg

    def set_immediate(self, lreg: int, value: int) -> None:
        """Force an entry to immediate mode (rename-stage write used by
        the load-immediate extension; retire-stage writes should go
        through :meth:`try_inline`)."""
        if not self.value_fits(value):
            raise ValueError(f"value {value:#x} does not fit in {self.value_bits} bits")
        self.modes[lreg] = MODE_IMMEDIATE
        self.values[lreg] = value

    def try_inline(self, lreg: int, preg: int, value: int) -> bool:
        """Retire-stage late update with the WAW check of Figure 7.

        The narrow ``value`` produced into ``preg`` is written into the
        entry only if the entry still points at ``preg`` — if a younger
        writer has already remapped the logical register, the update is
        dropped (returns False).
        """
        if not self.value_fits(value):
            return False
        if self.modes[lreg] == MODE_IMMEDIATE or self.values[lreg] != preg:
            return False
        self.modes[lreg] = MODE_IMMEDIATE
        self.values[lreg] = value
        return True

    # ------------------------------------------------------ checkpointing

    def snapshot(self) -> Tuple[List[int], List[int]]:
        """Shadow copy of the whole table (taken at each branch): a
        ``(modes, values)`` pair of fresh lists."""
        return (self.modes[:], self.values[:])

    def restore(self, snap) -> None:
        """Recover the table from a shadow copy (misprediction recovery).

        Accepts the ``(modes, values)`` pair produced by :meth:`snapshot`,
        or a legacy list of :class:`MapEntry` objects.
        """
        if isinstance(snap, tuple):
            modes, values = snap
            if len(modes) != self.num_logical or len(values) != self.num_logical:
                raise ValueError("snapshot size mismatch")
            self.modes[:] = modes
            self.values[:] = values
            return
        if len(snap) != self.num_logical:
            raise ValueError("snapshot size mismatch")
        for lreg, saved in enumerate(snap):
            self.modes[lreg] = int(saved.mode)
            self.values[lreg] = saved.value

    def pointers(self) -> List[int]:
        """All physical registers currently named by POINTER entries."""
        return [
            v
            for m, v in zip(self.modes, self.values)
            if m == MODE_POINTER and v >= 0
        ]

    def __len__(self) -> int:
        return self.num_logical
