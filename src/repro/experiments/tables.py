"""Table drivers: the paper's Table 1 (machine configurations) and
Table 2 (benchmarks and base IPC).  Table 2 renders from a results
table, like the figure drivers (:mod:`repro.experiments.figures`)."""

from __future__ import annotations

from typing import Sequence

from repro.config import eight_wide, four_wide
from repro.experiments.figures import FigureResult
from repro.experiments.report import format_table
from repro.experiments.runner import (
    FP_BENCHMARKS,
    INT_BENCHMARKS,
    Results,
    matrix_view,
)
from repro.workloads import get_profile

_DEFAULT_WIDTHS = (4, 8)


def table1() -> FigureResult:
    """Render the machine configurations (Table 1)."""
    result = FigureResult("Table 1: machine configurations")
    rows = []
    for config in (four_wide(), eight_wide()):
        rows.append(
            (
                config.name,
                config.width,
                config.rob_entries,
                config.lsq_entries,
                config.scheduler_entries,
                config.int_phys_regs,
                config.fp_phys_regs,
                config.pri.int_width_bits,
            )
        )
    result.tables.append(
        format_table(
            "out-of-order execution",
            ("model", "width", "ROB", "LSQ", "sched", "intPR", "fpPR", "PRIbits"),
            rows,
        )
    )
    mem = four_wide().memory
    result.tables.append(
        format_table(
            "memory system (latency in cycles)",
            ("level", "size", "assoc", "line", "latency"),
            (
                ("IL1", mem.il1.size, mem.il1.assoc, mem.il1.line, mem.il1.latency),
                ("DL1", mem.dl1.size, mem.dl1.assoc, mem.dl1.line, mem.dl1.latency),
                ("L2", mem.l2.size, mem.l2.assoc, mem.l2.line, mem.l2.latency),
                ("memory", "-", "-", "-", mem.memory_latency),
            ),
        )
    )
    return result


def table2(results: Results,
           widths: Sequence[int] = _DEFAULT_WIDTHS) -> FigureResult:
    """Base IPC for every benchmark at each width, next to the paper's
    reported values (Table 2), rendered from the cells of
    ``plan("table2", widths)`` in ``results``."""
    result = FigureResult("Table 2: benchmark programs simulated (base IPC)")
    for suite, names in (("integer", INT_BENCHMARKS), ("floating point", FP_BENCHMARKS)):
        matrices = [matrix_view(results, names, ("base",), width)
                    for width in widths]
        rows = []
        for name in names:
            profile = get_profile(name)
            cells = [name] + [matrix[name]["base"].ipc for matrix in matrices]
            cells.extend([profile.paper_ipc_4w, profile.paper_ipc_8w])
            rows.append(cells)
        headers = (
            ["benchmark"]
            + [f"IPC({w}w)" for w in widths]
            + ["paper(4w)", "paper(8w)"]
        )
        result.tables.append(format_table(suite, headers, rows, floatfmt="{:.2f}"))
        result.data[suite] = rows
    return result
