"""Synthetic workload substrate.

The paper evaluates PRI on SPEC2000 (Alpha binaries, DEC C -O4, large
reduced inputs for most integer benchmarks, reference inputs for FP).
None of that is available here, so each benchmark is modelled as a
*statistical profile* — instruction mix, operand-width distribution,
dependence-distance distribution, control-flow predictability, and memory
locality — and :class:`~repro.workloads.generator.TraceGenerator` expands
a profile into a concrete micro-op trace with fully consistent dataflow
(every source operand carries the value it must observe).

The profiles are calibrated against the per-benchmark numbers the paper
itself reports: Table 2 (base IPC), Figure 2 (operand significance), and
the relative speedups of Figures 10 and 12.
"""

from repro.workloads.value_models import IntValueModel, FpValueModel, WidthAnchors
from repro.workloads.profiles import (
    BenchmarkProfile,
    SPEC_INT,
    SPEC_FP,
    ALL_BENCHMARKS,
    get_profile,
)
from repro.workloads.generator import TraceGenerator, generate_trace
from repro.workloads.packed import PackedOps
from repro.workloads.trace import Trace, TraceStats
from repro.workloads.builder import TraceBuilder

__all__ = [
    "IntValueModel",
    "FpValueModel",
    "WidthAnchors",
    "BenchmarkProfile",
    "SPEC_INT",
    "SPEC_FP",
    "ALL_BENCHMARKS",
    "get_profile",
    "TraceGenerator",
    "generate_trace",
    "PackedOps",
    "Trace",
    "TraceStats",
    "TraceBuilder",
]
