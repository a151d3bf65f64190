"""Micro-op representation.

A :class:`MicroOp` is one element of a trace.  It carries the full
dataflow fact set the simulator needs: which architected registers are
read and written, the value each read is *expected* to observe (used to
assert dataflow correctness end-to-end through rename, inlining, and the
register file), the produced value, the memory address for loads/stores,
and branch metadata.

Micro-ops use ``__slots__`` — the cycle-level simulator allocates and
touches millions of them, and attribute-dict overhead dominates otherwise.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.isa.opcodes import IS_BRANCH, IS_LOAD, IS_MEM, IS_STORE, OpClass, RegClass

_CALL = OpClass.CALL


def op_fault(kind: int, dest: Optional[int], mem_addr: Optional[int],
             num_sources: int) -> Optional[str]:
    """The first rule of micro-op validity that an op with these fields
    breaks, as a message with ``{}`` where the op goes, or ``None``.

    * a memory op has an address, and no other op does;
    * a store writes no register;
    * a branch other than a call writes no register;
    * an op has at most two sources.

    :meth:`MicroOp.validate` and every writer of packed op rows call
    this, so the rules live in one place.
    """
    if IS_MEM[kind]:
        if mem_addr is None:
            return "memory op {} lacks an address"
    elif mem_addr is not None:
        return "non-memory op {} carries an address"
    if dest is not None:
        if IS_STORE[kind]:
            return "store {} must not write a register"
        if IS_BRANCH[kind] and kind != _CALL:
            return "branch {} must not write a register"
    if num_sources > 2:
        return "{} has more than two source operands"
    return None


class SourceOperand:
    """A source register read, with the value dataflow says it must see.

    ``expected_value`` is the producer's result (or the initial register
    content).  The simulator asserts that the value actually delivered to
    the ALU — whether from the physical register file, the bypass network,
    or an inlined immediate in the map/payload RAM — equals this.  Any PRI
    bookkeeping bug (e.g. the WAR violation of Figure 6) surfaces as a
    mismatch here.
    """

    __slots__ = ("reg_class", "index", "expected_value")

    def __init__(self, reg_class: RegClass, index: int, expected_value: int) -> None:
        self.reg_class = reg_class
        self.index = index
        self.expected_value = expected_value

    def __repr__(self) -> str:
        prefix = "r" if self.reg_class == RegClass.INT else "f"
        return f"{prefix}{self.index}={self.expected_value:#x}"


class MicroOp:
    """One dynamic instruction of a synthetic trace."""

    __slots__ = (
        "seq",
        "pc",
        "op",
        "sources",
        "dest_class",
        "dest",
        "result",
        "mem_addr",
        "taken",
        "target",
        "is_indirect",
        "is_branch",
        "is_load",
        "is_store",
        "is_mem",
    )

    def __init__(
        self,
        seq: int,
        pc: int,
        op: OpClass,
        sources: Tuple[SourceOperand, ...] = (),
        dest_class: RegClass = RegClass.INT,
        dest: Optional[int] = None,
        result: int = 0,
        mem_addr: Optional[int] = None,
        taken: bool = False,
        target: int = 0,
        is_indirect: bool = False,
    ) -> None:
        self.seq = seq
        self.pc = pc
        self.op = op
        self.sources = sources
        self.dest_class = dest_class
        self.dest = dest
        self.result = result
        self.mem_addr = mem_addr
        self.taken = taken
        self.target = target
        self.is_indirect = is_indirect
        # Kind flags, resolved once at construction: the pipeline reads
        # these for every dynamic instance of the op, so they are plain
        # attributes rather than properties over set membership.
        self.is_branch = IS_BRANCH[op]
        self.is_load = IS_LOAD[op]
        self.is_store = IS_STORE[op]
        self.is_mem = IS_MEM[op]

    @property
    def writes_register(self) -> bool:
        return self.dest is not None

    def validate(self) -> None:
        """Raise ValueError if the micro-op is internally inconsistent
        (:func:`op_fault`'s rules).

        The trace generator checks the same rules on every row it
        writes, and a trace packs a hand-built warmup prefix through
        them; the pipeline relies on them without rechecking.
        """
        fault = op_fault(self.op, self.dest, self.mem_addr, len(self.sources))
        if fault is not None:
            raise ValueError(fault.format(self))

    def __repr__(self) -> str:
        dest = ""
        if self.dest is not None:
            prefix = "r" if self.dest_class == RegClass.INT else "f"
            dest = f" -> {prefix}{self.dest}={self.result:#x}"
        return f"MicroOp(#{self.seq} pc={self.pc:#x} {self.op.name}{dest})"
