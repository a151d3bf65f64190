"""Operand significance analysis (the paper's Figure 2).

Figure 2 plots, per benchmark, the dynamic cumulative distribution of

* the number of two's-complement bits needed to represent each integer
  register operand (top graph);
* the number of significant exponent bits and significand bits of each
  floating-point register operand (bottom graphs), where a field that is
  all zeroes or all ones counts as zero significant bits.

We measure *dynamic register operands*: every source register value an
instruction reads plus every result it writes, matching the paper's
"dynamic cumulative distribution of the number of bits needed to
represent integer operands".  Each CDF takes an op stream: a
:class:`Trace` (its timed ops), a plain list of ops, or
:class:`~repro.workloads.packed.PackedOps` (a trace's warmup prefix, or
Figure 2's stream prefix).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List

from repro.isa.instruction import MicroOp
from repro.isa.opcodes import RegClass
from repro.isa.values import (
    fp_exponent_bits,
    fp_significand_bits,
    significant_bits,
)
from repro.workloads.packed import PackedOps
from repro.workloads.trace import Trace


def _dynamic_operands(ops: Iterable[MicroOp], reg_class: RegClass) -> List[int]:
    """All dynamic register operand values of one class in a stream.
    Packed ops are read from their columns, without building ops."""
    if isinstance(ops, PackedOps):
        return ops.operand_values(reg_class)
    values: List[int] = []
    for op in ops:
        for src in op.sources:
            if src.reg_class == reg_class:
                values.append(src.expected_value)
        if op.dest is not None and op.dest_class == reg_class:
            values.append(op.result)
    return values


def _cdf(counts: Dict[int, int], max_bits: int) -> List[float]:
    """counts[bits] -> cumulative fraction list indexed by bit count."""
    total = sum(counts.values())
    cdf: List[float] = []
    acc = 0
    for bits in range(max_bits + 1):
        acc += counts.get(bits, 0)
        cdf.append(acc / total if total else 0.0)
    return cdf


def int_width_cdf(ops: Iterable[MicroOp]) -> List[float]:
    """CDF over [0..64] of integer operand two's-complement widths."""
    counts: Dict[int, int] = {}
    for value in _dynamic_operands(ops, RegClass.INT):
        bits = significant_bits(value)
        counts[bits] = counts.get(bits, 0) + 1
    return _cdf(counts, 64)


def fp_exponent_cdf(ops: Iterable[MicroOp]) -> List[float]:
    """CDF over [0..11] of FP exponent significant bits (0 = all 0s/1s)."""
    counts: Dict[int, int] = {}
    for value in _dynamic_operands(ops, RegClass.FP):
        bits = fp_exponent_bits(value)
        counts[bits] = counts.get(bits, 0) + 1
    return _cdf(counts, 11)


def fp_significand_cdf(ops: Iterable[MicroOp]) -> List[float]:
    """CDF over [0..52] of FP significand significant bits."""
    counts: Dict[int, int] = {}
    for value in _dynamic_operands(ops, RegClass.FP):
        bits = fp_significand_bits(value)
        counts[bits] = counts.get(bits, 0) + 1
    return _cdf(counts, 52)


@dataclass
class SignificanceSummary:
    """Headline statistics the paper quotes from Figure 2."""

    name: str
    #: Fraction of integer operands representable in <= 10 bits.
    int_at_10_bits: float
    #: Fraction of integer operands representable in <= 7 bits.
    int_at_7_bits: float
    #: Fraction of FP exponents containing only zeroes or ones.
    fp_exp_zero_bits: float
    #: Fraction of FP significands containing only zeroes or ones.
    fp_sig_zero_bits: float

    def __str__(self) -> str:
        return (
            f"{self.name}: int<=7b {self.int_at_7_bits:.1%}, "
            f"int<=10b {self.int_at_10_bits:.1%}, "
            f"fp exp 0b {self.fp_exp_zero_bits:.1%}, "
            f"fp sig 0b {self.fp_sig_zero_bits:.1%}"
        )


def summarize_trace(trace: Trace) -> SignificanceSummary:
    """Compute the Figure 2 headline statistics for one trace."""
    int_cdf = int_width_cdf(trace)
    has_fp = any(
        src.reg_class == RegClass.FP for op in trace.ops for src in op.sources
    ) or any(op.dest is not None and op.dest_class == RegClass.FP for op in trace.ops)
    if has_fp:
        exp_cdf = fp_exponent_cdf(trace)
        sig_cdf = fp_significand_cdf(trace)
        exp0, sig0 = exp_cdf[0], sig_cdf[0]
    else:
        exp0 = sig0 = 0.0
    return SignificanceSummary(
        name=trace.name,
        int_at_10_bits=int_cdf[10],
        int_at_7_bits=int_cdf[7],
        fp_exp_zero_bits=exp0,
        fp_sig_zero_bits=sig0,
    )
