"""Per-figure experiment drivers.

Each ``figureN`` function regenerates the data behind the paper's Figure
N — the same rows and series the paper plots — and returns a result
object whose ``render()`` produces a plain-text table.  Absolute numbers
come from the synthetic-trace substrate (see DESIGN.md §4); the shape is
what is being reproduced.

:data:`CELLS` declares the cells each table and figure reads; its
driver renders them from a results table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.lifetime import LifetimeBreakdown, breakdown_from_stats
from repro.analysis.significance import (
    fp_exponent_cdf,
    fp_significand_cdf,
    int_width_cdf,
)
from repro.config import PRF_SWEEP_SIZES
# Re-exported: the benchmark harness (perfbench/layers.py) wraps this name.
from repro.core.machine import simulate as simulate
from repro.experiments import runner
from repro.experiments.report import (
    bar_chart,
    format_table,
    mean,
    stacked_bar_chart,
)
from repro.experiments.runner import (
    FIGURE10_SCHEMES,
    FP_BENCHMARKS,
    INT_BENCHMARKS,
    Cell,
    Results,
    RunSpec,
    TraceCache,
    matrix_view,
    run_cells,
    speedups_over_base,
    width_config,
)

_DEFAULT_WIDTHS: Tuple[int, ...] = (4, 8)

#: Figures 10 and 12's schemes: the baseline, then the plotted series.
_SPEEDUP_SCHEMES = ("base",) + FIGURE10_SCHEMES
#: Short column labels for long scheme names.
_LABELS = {"PRI-refcount+ckptcount": "PRI"}


def _sized_schemes(width: int, sizes: Sequence[int] = PRF_SWEEP_SIZES):
    """Figure 9's schemes: the base machine at each register file size,
    ``base@PR=<n>``, but plain ``base`` at the Table 1 size (64 at both
    widths), so that column is Table 2's cell and not a copy."""
    base = width_config(width)
    return ["base" if base.with_phys_regs(n) == base else f"base@PR={n}"
            for n in sizes]


#: The cells each simulating table and figure reads: its default
#: benchmarks, and its schemes (a tuple, or a function of the width).
CELLS = {
    "table2": (INT_BENCHMARKS + FP_BENCHMARKS, ("base",)),
    "figure1": (INT_BENCHMARKS, ("base",)),
    "figure8": (INT_BENCHMARKS, ("base", "PRI-refcount+ckptcount", "PRI+ER")),
    "figure9": (INT_BENCHMARKS, _sized_schemes),
    "figure10": (INT_BENCHMARKS, _SPEEDUP_SCHEMES),
    "figure11": (INT_BENCHMARKS,
                 ("base", "ER", "PRI-refcount+ckptcount", "PRI+ER")),
    "figure12": (FP_BENCHMARKS, _SPEEDUP_SCHEMES),
}


def plan(name: str, widths: Sequence[int],
         benchmarks: Optional[Sequence[str]] = None,
         schemes=None) -> List[Cell]:
    """The (benchmark, scheme, width) cells driver ``name`` reads: its
    :data:`CELLS` entry, unless ``benchmarks`` or ``schemes`` replace it."""
    default_benchmarks, default_schemes = CELLS[name]
    schemes = schemes or default_schemes
    return [(b, s, w) for w in widths for b in benchmarks or default_benchmarks
            for s in (schemes(w) if callable(schemes) else schemes)]


@dataclass
class FigureResult:
    """Generic container: a title plus one table per machine width."""

    title: str
    tables: List[str] = field(default_factory=list)
    data: Dict = field(default_factory=dict)

    def render(self) -> str:
        return "\n\n".join([self.title] + self.tables)


# ===================================================================
# Figure 1 — average register lifetime, base machine
# ===================================================================

def figure1(
    spec: Optional[RunSpec] = None,
    widths: Sequence[int] = _DEFAULT_WIDTHS,
    benchmarks: Sequence[str] = INT_BENCHMARKS,
    traces: Optional[TraceCache] = None,
    results: Optional[Results] = None,
) -> FigureResult:
    """Average physical register lifetime, split into alloc→write,
    write→last-read, last-read→release (stacked bars of Figure 1).

    Renders ``results``, or else simulates its own cells in process; a
    failed cell raises :class:`~repro.experiments.runner.MatrixError`.
    The same applies to every other simulating driver."""
    if results is None:
        results = run_cells(plan("figure1", widths, benchmarks), spec,
                            traces)
    result = FigureResult(
        "Figure 1: average integer register lifetime (cycles), base machine"
    )
    for width in widths:
        rows = []
        breakdowns: List[LifetimeBreakdown] = []
        matrix = matrix_view(results, benchmarks, ("base",), width)
        for benchmark in benchmarks:
            b = breakdown_from_stats(matrix[benchmark]["base"], benchmark)
            breakdowns.append(b)
            rows.append(
                (benchmark, b.alloc_to_write, b.write_to_last_read,
                 b.last_read_to_release, b.total)
            )
        rows.append(
            ("mean",
             mean([b.alloc_to_write for b in breakdowns]),
             mean([b.write_to_last_read for b in breakdowns]),
             mean([b.last_read_to_release for b in breakdowns]),
             mean([b.total for b in breakdowns]))
        )
        result.tables.append(
            format_table(
                f"width {width}",
                ("benchmark", "alloc->write", "write->last-read",
                 "last-read->release", "total"),
                rows,
                floatfmt="{:.1f}",
            )
        )
        result.tables.append(
            stacked_bar_chart(
                f"width {width} (cycles; stacked as in the paper's Figure 1)",
                [(b.label, (b.alloc_to_write, b.write_to_last_read,
                            b.last_read_to_release)) for b in breakdowns],
                ("alloc->write", "write->last-read", "last-read->release"),
            )
        )
        result.data[width] = breakdowns
    return result


# ===================================================================
# Figure 2 — operand significance CDFs
# ===================================================================

def figure2(
    length: int = 20000,
    seed: int = 1,
    int_benchmarks: Sequence[str] = INT_BENCHMARKS,
    fp_benchmarks: Sequence[str] = FP_BENCHMARKS,
    traces: Optional[TraceCache] = None,
) -> FigureResult:
    """Dynamic cumulative operand-width distributions (Figure 2), over
    the first ``length`` ops of each benchmark's stream at ``seed``.

    The ops come from ``traces``, by default the run's shared trace
    cache (``runner._GLOBAL_TRACES``, looked up per call): once Table 2
    or a sweep has cached a trace whose warmup prefix plus timed ops
    cover ``length``, its ops are reused instead of regenerated (see
    :meth:`~repro.experiments.runner.TraceCache.stream_prefix`)."""
    traces = traces or runner._GLOBAL_TRACES
    result = FigureResult("Figure 2: operand significance")
    int_points = (1, 4, 7, 10, 16, 24, 32, 48, 64)
    rows = []
    cdfs: Dict[str, List[float]] = {}
    for name in int_benchmarks:
        cdf = int_width_cdf(traces.stream_prefix(name, seed, length))
        cdfs[name] = cdf
        rows.append([name] + [cdf[b] for b in int_points])
    rows.append(["mean"] + [mean([cdfs[n][b] for n in int_benchmarks])
                            for b in int_points])
    result.tables.append(
        format_table(
            "integer operands: cumulative fraction representable in <= N bits",
            ["benchmark"] + [f"<={b}b" for b in int_points],
            rows,
        )
    )
    exp_rows, fp_data = [], {}
    for name in fp_benchmarks:
        ops = traces.stream_prefix(name, seed, length)
        exp_cdf = fp_exponent_cdf(ops)
        sig_cdf = fp_significand_cdf(ops)
        fp_data[name] = (exp_cdf, sig_cdf)
        exp_rows.append((name, exp_cdf[0], exp_cdf[4], exp_cdf[8],
                         sig_cdf[0], sig_cdf[16], sig_cdf[32]))
    exp_rows.append(
        ("mean",
         mean([fp_data[n][0][0] for n in fp_benchmarks]),
         mean([fp_data[n][0][4] for n in fp_benchmarks]),
         mean([fp_data[n][0][8] for n in fp_benchmarks]),
         mean([fp_data[n][1][0] for n in fp_benchmarks]),
         mean([fp_data[n][1][16] for n in fp_benchmarks]),
         mean([fp_data[n][1][32] for n in fp_benchmarks]))
    )
    result.tables.append(
        format_table(
            "FP operands: exponent / significand significant-bit CDF",
            ("benchmark", "exp 0b", "exp<=4b", "exp<=8b",
             "sig 0b", "sig<=16b", "sig<=32b"),
            exp_rows,
        )
    )
    result.data = {"int": cdfs, "fp": fp_data}
    return result


# ===================================================================
# Figure 8 — lifetime reduction with PRI and PRI+ER
# ===================================================================

def figure8(
    spec: Optional[RunSpec] = None,
    widths: Sequence[int] = _DEFAULT_WIDTHS,
    benchmarks: Sequence[str] = INT_BENCHMARKS,
    traces: Optional[TraceCache] = None,
    results: Optional[Results] = None,
) -> FigureResult:
    """Register lifetime for base vs PRI vs PRI+ER (Figure 8)."""
    if results is None:
        results = run_cells(plan("figure8", widths, benchmarks), spec,
                            traces)
    schemes = CELLS["figure8"][1]
    labels = {s: _LABELS.get(s, s) for s in schemes}
    result = FigureResult(
        "Figure 8: average integer register lifetime (cycles) with PRI / PRI+ER"
    )
    for width in widths:
        matrix = matrix_view(results, benchmarks, schemes, width)
        rows = []
        data = {}
        for benchmark in benchmarks:
            cells = [benchmark]
            for scheme in schemes:
                b = breakdown_from_stats(matrix[benchmark][scheme], benchmark)
                data.setdefault(benchmark, {})[labels[scheme]] = b
                cells.append(b.total)
            rows.append(cells)
        rows.append(
            ["mean"]
            + [mean([data[n][labels[s]].total for n in benchmarks]) for s in schemes]
        )
        result.tables.append(
            format_table(
                f"width {width} (total lifetime per scheme)",
                ["benchmark"] + [labels[s] for s in schemes],
                rows,
                floatfmt="{:.1f}",
            )
        )
        result.data[width] = data
    return result


# ===================================================================
# Figure 9 — register file size sensitivity
# ===================================================================

def figure9(
    spec: Optional[RunSpec] = None,
    widths: Sequence[int] = _DEFAULT_WIDTHS,
    benchmarks: Sequence[str] = INT_BENCHMARKS,
    sizes: Sequence[int] = PRF_SWEEP_SIZES,
    traces: Optional[TraceCache] = None,
    results: Optional[Results] = None,
) -> FigureResult:
    """Base-machine speedup vs physical register count, normalized to the
    smallest size (Figure 9).

    Each size is a scheme (``base@PR=<n>``)."""
    if results is None:
        results = run_cells(
            plan("figure9", widths, benchmarks,
                 lambda width: _sized_schemes(width, sizes)),
            spec, traces)
    result = FigureResult(
        f"Figure 9: register file sensitivity (speedup over PR={sizes[0]})"
    )
    for width in widths:
        schemes = _sized_schemes(width, sizes)
        matrix = matrix_view(results, benchmarks, schemes, width)
        rows = []
        data: Dict[str, Dict[int, float]] = {}
        for benchmark in benchmarks:
            ipcs = [matrix[benchmark][scheme].ipc for scheme in schemes]
            norm = ipcs[0]
            data[benchmark] = {size: (ipc / norm if norm else 0.0)
                               for size, ipc in zip(sizes, ipcs)}
            rows.append([benchmark] + [data[benchmark][s] for s in sizes])
        rows.append(
            ["mean"] + [mean([data[b][s] for b in benchmarks]) for s in sizes]
        )
        result.tables.append(
            format_table(
                f"width {width}",
                ["benchmark"] + [f"PR={s}" for s in sizes],
                rows,
            )
        )
        result.data[width] = data
    return result


# ===================================================================
# Figures 10 and 12 — scheme speedups (INT and FP)
# ===================================================================

def _scheme_speedup_figure(
    title: str,
    benchmarks: Sequence[str],
    widths: Sequence[int],
    results: Results,
) -> FigureResult:
    result = FigureResult(title)
    for width in widths:
        matrix = matrix_view(results, benchmarks, _SPEEDUP_SCHEMES, width)
        speedups = speedups_over_base(matrix)
        rows = []
        for benchmark in benchmarks:
            rows.append(
                [benchmark, matrix[benchmark]["base"].ipc]
                + [speedups[benchmark][s] for s in FIGURE10_SCHEMES]
            )
        rows.append(
            ["mean", mean([matrix[b]["base"].ipc for b in benchmarks])]
            + [mean([speedups[b][s] for b in benchmarks]) for s in FIGURE10_SCHEMES]
        )
        result.tables.append(
            format_table(
                f"width {width} (IPC speedup over base)",
                ["benchmark", "baseIPC"] + list(FIGURE10_SCHEMES),
                rows,
            )
        )
        result.tables.append(
            bar_chart(
                f"width {width}: mean speedup by scheme (bar length = gain over base)",
                [(s, mean([speedups[b][s] for b in benchmarks]))
                 for s in FIGURE10_SCHEMES],
                baseline=1.0,
            )
        )
        result.data[width] = {"matrix": matrix, "speedups": speedups}
    return result


def figure10(
    spec: Optional[RunSpec] = None,
    widths: Sequence[int] = _DEFAULT_WIDTHS,
    benchmarks: Sequence[str] = INT_BENCHMARKS,
    traces: Optional[TraceCache] = None,
    results: Optional[Results] = None,
) -> FigureResult:
    """PRI speedups for the SPECint suite (Figure 10)."""
    if results is None:
        results = run_cells(plan("figure10", widths, benchmarks), spec,
                            traces)
    return _scheme_speedup_figure(
        "Figure 10: PRI speed-up, SPEC2000 integer", benchmarks, widths,
        results)


def figure12(
    spec: Optional[RunSpec] = None,
    widths: Sequence[int] = _DEFAULT_WIDTHS,
    benchmarks: Sequence[str] = FP_BENCHMARKS,
    traces: Optional[TraceCache] = None,
    results: Optional[Results] = None,
) -> FigureResult:
    """PRI speedups for the SPECfp suite (Figure 12)."""
    if results is None:
        results = run_cells(plan("figure12", widths, benchmarks), spec,
                            traces)
    return _scheme_speedup_figure(
        "Figure 12: PRI speed-up, SPEC2000 floating point", benchmarks,
        widths, results)


# ===================================================================
# Figure 11 — register file occupancy
# ===================================================================

def figure11(
    spec: Optional[RunSpec] = None,
    widths: Sequence[int] = _DEFAULT_WIDTHS,
    benchmarks: Sequence[str] = INT_BENCHMARKS,
    traces: Optional[TraceCache] = None,
    results: Optional[Results] = None,
) -> FigureResult:
    """Average integer PRF occupancy for base / ER / PRI / PRI+ER."""
    if results is None:
        results = run_cells(plan("figure11", widths, benchmarks), spec,
                            traces)
    schemes = CELLS["figure11"][1]
    labels = [_LABELS.get(s, s) for s in schemes]
    result = FigureResult("Figure 11: average integer PRF occupancy (registers)")
    for width in widths:
        matrix = matrix_view(results, benchmarks, schemes, width)
        rows = []
        data = {}
        for benchmark in benchmarks:
            occs = [matrix[benchmark][s].avg_occupancy("int") for s in schemes]
            data[benchmark] = dict(zip(labels, occs))
            rows.append([benchmark] + occs)
        rows.append(
            ["mean"]
            + [mean([data[b][lab] for b in benchmarks]) for lab in labels]
        )
        result.tables.append(
            format_table(
                f"width {width}", ["benchmark"] + list(labels), rows, floatfmt="{:.1f}"
            )
        )
        result.tables.append(
            bar_chart(
                f"width {width}: mean occupancy by scheme",
                [(lab, mean([data[b][lab] for b in benchmarks]))
                 for lab in labels],
                floatfmt="{:.1f}",
            )
        )
        result.data[width] = data
    return result
