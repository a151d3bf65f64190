"""Micro-ops packed as rows of one flat integer array.

A trace's warmup prefix is almost all of it at short timed lengths
(20,000 ops against 200 at ``paper-all``'s ``--length 200``), yet only
two readers walk it: the machine's functional warmup, which needs each
op's pc, kind, branch outcome and data address, and Figure 2, which
needs operand values.  As :class:`~repro.isa.instruction.MicroOp`
objects with their operand tuples it costs about 380 bytes an op; as a
row of :data:`FIELDS` unsigned 64-bit words it costs 88.

Row layout (field indices are the module constants below):

* ``SEQ``, ``PC``, ``KIND`` (the ``OpClass`` value), ``TARGET``;
* ``FLAGS``: :data:`TAKEN`, :data:`INDIRECT`, :data:`FP_DEST` (the
  destination class is FP), :data:`HAS_DEST` and :data:`HAS_ADDR` (the
  op's ``dest`` / ``mem_addr`` is not ``None``);
* ``DEST`` and ``ADDR``, 0 when absent;
* ``SOURCES``: the source count in bits 0-1, then one byte per source,
  ``reg_class | index << 1``, at bits 2 and 10;
* ``RESULT``, ``VALUE0``, ``VALUE1``: the result and source values.  An
  integer value is stored as its 64-bit two's-complement pattern and
  read back signed; an FP value is its IEEE-754 pattern as is.

:class:`PackedOps` is the read-only sequence view over such rows: its
``len()`` is O(1), an item read builds a ``MicroOp``, and
:meth:`PackedOps.columns` / :meth:`PackedOps.operand_values` read
fields without building any.  :meth:`PackedOps.pack` writes rows from
``MicroOp``s; the trace generator writes the same rows directly.  Both
check :func:`~repro.isa.instruction.op_fault`'s rules on every row.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from typing import Iterable, Iterator, List, Tuple

from repro.isa.instruction import MicroOp, SourceOperand, op_fault
from repro.isa.opcodes import OpClass, RegClass

#: Field indices of a row, and the row width.
SEQ, PC, KIND, FLAGS, DEST, RESULT, ADDR, TARGET, SOURCES, VALUE0, VALUE1 = range(11)
FIELDS = 11

#: ``FLAGS`` bits.
TAKEN, INDIRECT, FP_DEST, HAS_DEST, HAS_ADDR = 1, 2, 4, 8, 16

_SIGN = 1 << 63
_WRAP = 1 << 64
_MASK = _WRAP - 1
_KINDS = tuple(OpClass)
_INT, _FP = RegClass.INT, RegClass.FP


def _operand(code: int, value: int) -> SourceOperand:
    if code & 1:
        return SourceOperand(_FP, code >> 1, value)
    return SourceOperand(_INT, code >> 1, value - _WRAP if value & _SIGN else value)


def decode_row(row: Iterable[int]) -> MicroOp:
    """The ``MicroOp`` one packed row stands for."""
    seq, pc, kind, flags, dest, result, addr, target, sources, v0, v1 = row
    count = sources & 3
    if count:
        first = _operand(sources >> 2 & 0xFF, v0)
        if count == 1:
            operands = (first,)
        else:
            operands = (first, _operand(sources >> 10 & 0xFF, v1))
    else:
        operands = ()
    if flags & FP_DEST:
        dest_class = _FP
    else:
        dest_class = _INT
        if result & _SIGN:
            result -= _WRAP
    return MicroOp(
        seq, pc, _KINDS[kind], operands, dest_class,
        dest if flags & HAS_DEST else None, result,
        addr if flags & HAS_ADDR else None,
        bool(flags & TAKEN), target, bool(flags & INDIRECT),
    )


def _word(value: int, reg_class: int, op: MicroOp) -> int:
    """A register value as a row word; ValueError if it has none."""
    if reg_class == _FP:
        if 0 <= value < _WRAP:
            return value
    elif -_SIGN <= value < _SIGN:
        return value & _MASK
    raise ValueError(f"{op}: {value:#x} is not a 64-bit "
                     f"{RegClass(reg_class).name} register value")


def _encode(op: MicroOp) -> Tuple[int, ...]:
    operands = op.sources
    fault = op_fault(op.op, op.dest, op.mem_addr, len(operands))
    if fault is not None:
        raise ValueError(fault.format(op))
    sources, words = len(operands), [0, 0]
    for i, src in enumerate(operands):
        if not 0 <= src.index < 128:
            raise ValueError(f"{op}: source register {src.index} out of range")
        sources |= (src.reg_class | src.index << 1) << (2 + 8 * i)
        words[i] = _word(src.expected_value, src.reg_class, op)
    flags = ((TAKEN if op.taken else 0) | (INDIRECT if op.is_indirect else 0)
             | (FP_DEST if op.dest_class == _FP else 0)
             | (HAS_DEST if op.dest is not None else 0)
             | (HAS_ADDR if op.mem_addr is not None else 0))
    return (op.seq, op.pc, op.op, flags, op.dest or 0,
            _word(op.result, op.dest_class, op), op.mem_addr or 0, op.target,
            sources, words[0], words[1])


class PackedOps(Sequence):
    """A read-only sequence of micro-ops held as packed rows.

    ``len()`` is O(1); indexing or iterating builds a new ``MicroOp``
    per item read (equal in every field to the op that was packed, but
    not the same object); a slice (step 1) is another ``PackedOps``.
    """

    __slots__ = ("_rows",)

    def __init__(self, rows: array) -> None:
        self._rows = rows
        if len(rows) % FIELDS:
            raise ValueError(f"packed rows must be {FIELDS} words each")

    @classmethod
    def pack(cls, ops: Iterable[MicroOp]) -> "PackedOps":
        """``ops`` as packed rows.  ValueError when an op breaks
        :func:`~repro.isa.instruction.op_fault`'s rules (with the
        message ``MicroOp.validate`` gives) or holds a field no row word
        can."""
        rows = array("Q")
        for op in ops:
            row = _encode(op)
            try:
                rows.extend(row)
            except (OverflowError, TypeError) as exc:
                raise ValueError(f"{op}: a field does not fit a packed row "
                                 f"({exc})") from None
        return cls(rows)

    def __len__(self) -> int:
        return len(self._rows) // FIELDS

    def __getitem__(self, index):
        rows = self._rows
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self))
            if step != 1:
                raise ValueError("packed ops slice only with step 1")
            return PackedOps(rows[start * FIELDS:max(start, stop) * FIELDS])
        n = len(self)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("op index out of range")
        return decode_row(rows[index * FIELDS:(index + 1) * FIELDS])

    def __iter__(self) -> Iterator[MicroOp]:
        rows = self._rows
        for base in range(0, len(rows), FIELDS):
            yield decode_row(rows[base:base + FIELDS])

    def __add__(self, other: "PackedOps") -> "PackedOps":
        if not isinstance(other, PackedOps):
            return NotImplemented
        return PackedOps(self._rows + other._rows)

    def __eq__(self, other) -> bool:
        """Equal to packed ops, or to a list or tuple of ops, with the
        same fields in the same order."""
        if isinstance(other, (list, tuple)):
            try:
                other = PackedOps.pack(other)
            except (ValueError, AttributeError):
                return False
        if not isinstance(other, PackedOps):
            return NotImplemented
        return self._rows == other._rows

    def columns(self, *fields: int) -> Tuple[array, ...]:
        """One array per named field (``PC``, ``KIND``, ...), op by op."""
        return tuple(self._rows[field::FIELDS] for field in fields)

    def operand_values(self, reg_class: int) -> List[int]:
        """The register values of class ``reg_class`` each op reads and
        writes, op by op: its sources in order, then its result when it
        writes a register of that class."""
        fp = 1 if reg_class == _FP else 0
        dest_bits = HAS_DEST | (FP_DEST if fp else 0)
        values: List[int] = []
        append = values.append
        for sources, v0, v1, flags, result in zip(
                *self.columns(SOURCES, VALUE0, VALUE1, FLAGS, RESULT)):
            count = sources & 3
            if count:
                if sources >> 2 & 1 == fp:
                    append(v0)
                if count == 2 and sources >> 10 & 1 == fp:
                    append(v1)
            if flags & (HAS_DEST | FP_DEST) == dest_bits:
                append(result)
        if not fp:
            values = [v - _WRAP if v & _SIGN else v for v in values]
        return values

    def __repr__(self) -> str:
        return f"PackedOps({len(self)} ops)"
