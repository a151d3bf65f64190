"""Operation classes for the synthetic micro-op ISA.

Latencies follow common SimpleScalar ``sim-outorder`` defaults, which is
what the paper's simulator was derived from: single-cycle integer ALU,
3-cycle multiply, 20-cycle divide, FP add/mul pipelined at 3-4 cycles,
long FP divide.  Loads have a 1-cycle address-generation component; the
cache hierarchy supplies the rest of their latency.
"""

from __future__ import annotations

import enum


class RegClass(enum.IntEnum):
    """Register file class: the machine has split INT and FP files."""

    INT = 0
    FP = 1


class OpClass(enum.IntEnum):
    """Micro-op operation classes.

    The class determines execution latency, which register file the
    destination lives in, and how the pipeline treats the instruction
    (memory ops go through the LSQ, branches resolve at execute and may
    redirect fetch).
    """

    INT_ALU = 0
    INT_MUL = 1
    INT_DIV = 2
    LOAD = 3
    STORE = 4
    BRANCH = 5
    CALL = 6
    RETURN = 7
    FP_ADD = 8
    FP_MUL = 9
    FP_DIV = 10
    FP_LOAD = 11
    FP_STORE = 12
    NOP = 13


#: Fixed execution latency per op class, in cycles.  Loads use this as the
#: address-generation latency; cache access latency is added on top by the
#: memory hierarchy.
LATENCY = {
    OpClass.INT_ALU: 1,
    OpClass.INT_MUL: 3,
    OpClass.INT_DIV: 20,
    OpClass.LOAD: 1,
    OpClass.STORE: 1,
    OpClass.BRANCH: 1,
    OpClass.CALL: 1,
    OpClass.RETURN: 1,
    OpClass.FP_ADD: 3,
    OpClass.FP_MUL: 4,
    OpClass.FP_DIV: 12,
    OpClass.FP_LOAD: 1,
    OpClass.FP_STORE: 1,
    OpClass.NOP: 1,
}

_BRANCH_CLASSES = frozenset({OpClass.BRANCH, OpClass.CALL, OpClass.RETURN})
_LOAD_CLASSES = frozenset({OpClass.LOAD, OpClass.FP_LOAD})
_STORE_CLASSES = frozenset({OpClass.STORE, OpClass.FP_STORE})
_FP_CLASSES = frozenset(
    {OpClass.FP_ADD, OpClass.FP_MUL, OpClass.FP_DIV, OpClass.FP_LOAD, OpClass.FP_STORE}
)

#: Precomputed per-opcode tables, indexed by ``OpClass`` value.  The
#: cycle-level core consults opcode kind and latency for every dynamic
#: micro-op, so these are tuples (C-level indexing) rather than set
#: membership tests or dict lookups.
LATENCY_BY_CLASS = tuple(LATENCY[op] for op in OpClass)
IS_BRANCH = tuple(op in _BRANCH_CLASSES for op in OpClass)
IS_LOAD = tuple(op in _LOAD_CLASSES for op in OpClass)
IS_STORE = tuple(op in _STORE_CLASSES for op in OpClass)
IS_MEM = tuple(op in _LOAD_CLASSES or op in _STORE_CLASSES for op in OpClass)


def is_branch(op: OpClass) -> bool:
    """Return True for control-transfer micro-ops."""
    return op in _BRANCH_CLASSES


def is_load(op: OpClass) -> bool:
    """Return True for loads (INT or FP)."""
    return op in _LOAD_CLASSES


def is_store(op: OpClass) -> bool:
    """Return True for stores (INT or FP)."""
    return op in _STORE_CLASSES


def is_mem(op: OpClass) -> bool:
    """Return True for any memory micro-op (occupies an LSQ slot)."""
    return op in _LOAD_CLASSES or op in _STORE_CLASSES


def is_fp(op: OpClass) -> bool:
    """Return True for micro-ops executed in the floating-point cluster."""
    return op in _FP_CLASSES


def dest_reg_class(op: OpClass) -> RegClass:
    """Register class of the destination a micro-op of this class writes."""
    if op in (OpClass.FP_ADD, OpClass.FP_MUL, OpClass.FP_DIV, OpClass.FP_LOAD):
        return RegClass.FP
    return RegClass.INT
