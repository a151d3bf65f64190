"""Per-figure experiment drivers.

Each ``figureN`` function renders the data behind the paper's Figure N
— the same rows and series the paper plots — and returns a result
object whose ``render()`` produces a plain-text table.  Absolute numbers
come from the synthetic-trace substrate (see DESIGN.md §4); the shape is
what is being reproduced.

:data:`CELLS` and :data:`ABLATIONS` declare the cells each table, figure
and ablation reads, and :func:`plan` lists them.  Their drivers only
render: simulate a plan first, then pass the results table::

    results = run_cells(plan("figure10", (4, 8)), spec)
    figure10(results)
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
    TraceCache,
    cells_view,
    matrix_view,
    scheme_name,
    speedups_over_base,
)

_DEFAULT_WIDTHS: Tuple[int, ...] = (4, 8)

#: Figures 10 and 12's schemes: the baseline, then the plotted series.
_SPEEDUP_SCHEMES = ("base",) + FIGURE10_SCHEMES
#: Short column labels for long scheme names.
_LABELS = {"PRI-refcount+ckptcount": "PRI"}


def _sized_schemes(width: int) -> List[str]:
    """Figure 9's schemes: the base machine at each register file size of
    :data:`~repro.config.PRF_SWEEP_SIZES`, ``base@PR=<n>``, spelled by
    :func:`~runner.scheme_name`, so the Table 1 size (64 at both widths)
    is Table 2's plain ``base`` cell."""
    return [scheme_name(f"base@PR={n}", width) for n in PRF_SWEEP_SIZES]


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


@dataclass(frozen=True)
class Ablation:
    """One ablation table, simulated at 4-wide only.

    Each row is ``(label, benchmark, suffix)`` and each column
    ``(header, SimStats field, scheme, reference scheme or None)``.  A
    row's cell in a column is the column's scheme plus the row's suffix
    (:data:`~runner.SUFFIXES`); with a reference, the column shows the
    field's ratio to the reference's (``ipc``: a speedup)."""

    title: str
    row_header: str
    rows: Tuple[Tuple[str, str, str], ...]
    columns: Tuple[Tuple[str, str, str, Optional[str]], ...]


_PRI = "PRI-refcount+ckptcount"

#: The design-space points around the paper's machine: the 7/10-bit
#: inlining threshold, the replay WAR policy Section 3.3 declines to
#: evaluate, the structures PRI interacts with, and Section 6's
#: virtual-physical and load-immediate extensions.  ``--all`` renders
#: them after the figures.
ABLATIONS = {
    "width-threshold": Ablation(
        "PRI speedup vs inlinable width threshold", "benchmark",
        tuple((b, b, "") for b in ("gzip", "mcf", "twolf")),
        tuple((f"{n}b", "ipc", f"{_PRI}@bits={n}", "base")
              for n in (1, 4, 7, 10, 13, 16))),
    "war-policy": Ablation(
        "PRI speedup by WAR policy (48 registers)", "benchmark",
        tuple((b, b, "@PR=48") for b in ("gzip", "mcf")),
        (("refcount", "ipc", "PRI-refcount+lazy", "base"),
         ("ideal", "ipc", "PRI-ideal+lazy", "base"),
         ("replay", "ipc", "PRI-refcount+lazy@replay", "base"))),
    "checkpoints": Ablation(
        "PRI vs checkpoint capacity (gzip)", "checkpoints",
        tuple((str(n), "gzip", f"@ckpts={n}") for n in (4, 8, 16, 64)),
        (("IPC", "ipc", _PRI, None),
         ("rename stalls", "rename_stall_other", _PRI, None))),
    "scheduler": Ablation(
        "PRI gain vs scheduler size (gzip)", "sched entries",
        tuple((str(n), "gzip", f"@sched={n}") for n in (16, 32, 128, 512)),
        (("base IPC", "ipc", "base", None), ("PRI IPC", "ipc", _PRI, None),
         ("speedup", "ipc", _PRI, "base"))),
    "virtual-physical": Ablation(
        "virtual-physical allocation x PRI", "bench/regs",
        tuple((f"{b}/{n}r", b, f"@PR={n}") for b in ("gzip", "twolf")
              for n in (40, 64)),
        (("base IPC", "ipc", "base", None), ("VP", "ipc", "base@vp", "base"),
         ("PRI", "ipc", _PRI, "base"),
         ("VP+PRI", "ipc", f"{_PRI}@vp", "base"))),
    "load-immediate": Ablation(
        "load-immediate dead-register hint (48 registers)", "benchmark",
        tuple((b, b, "@PR=48") for b in ("gzip", "twolf")),
        (("PRI IPC", "ipc", _PRI, None),
         ("PRI+hint IPC", "ipc", f"{_PRI}@li", None),
         ("ratio", "ipc", f"{_PRI}@li", _PRI),
         ("inlined", "inlined", f"{_PRI}@li", None))),
}


def _column_cells(benchmark: str, suffix: str, scheme: str,
                  reference: Optional[str]) -> List[Cell]:
    """An ablation column's cell in one row, then its reference cell."""
    return [(benchmark, scheme_name(s + suffix, 4), 4)
            for s in (scheme, reference) if s]


def plan(name: str, widths: Sequence[int],
         benchmarks: Optional[Sequence[str]] = None) -> List[Cell]:
    """The (benchmark, scheme, width) cells driver ``name`` reads: its
    :data:`CELLS` entry, over ``benchmarks`` when given, or its
    :data:`ABLATIONS` entry's cells when 4 is among ``widths``."""
    if name in ABLATIONS:
        table = ABLATIONS[name]
        return [cell for _, benchmark, suffix in table.rows
                for _, _, scheme, reference in table.columns
                for cell in _column_cells(benchmark, suffix, scheme, reference)
                ] if 4 in widths else []
    default_benchmarks, schemes = CELLS[name]
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
    results: Results,
    widths: Sequence[int] = _DEFAULT_WIDTHS,
    benchmarks: Sequence[str] = INT_BENCHMARKS,
) -> FigureResult:
    """Average physical register lifetime, split into alloc→write,
    write→last-read, last-read→release (stacked bars of Figure 1).

    Renders the cells of ``plan("figure1", widths, benchmarks)`` from
    ``results``; a failed cell raises
    :class:`~repro.experiments.runner.MatrixError`.  The same applies to
    every other driver of :data:`CELLS` and :data:`ABLATIONS`."""
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
    results: Results,
    widths: Sequence[int] = _DEFAULT_WIDTHS,
    benchmarks: Sequence[str] = INT_BENCHMARKS,
) -> FigureResult:
    """Register lifetime for base vs PRI vs PRI+ER (Figure 8)."""
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
    results: Results,
    widths: Sequence[int] = _DEFAULT_WIDTHS,
    benchmarks: Sequence[str] = INT_BENCHMARKS,
) -> FigureResult:
    """Base-machine speedup vs physical register count, normalized to the
    smallest size (Figure 9).

    Each size of :data:`~repro.config.PRF_SWEEP_SIZES` is a scheme
    (``base@PR=<n>``)."""
    sizes = PRF_SWEEP_SIZES
    result = FigureResult(
        f"Figure 9: register file sensitivity (speedup over PR={sizes[0]})"
    )
    for width in widths:
        schemes = _sized_schemes(width)
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
    results: Results,
    widths: Sequence[int] = _DEFAULT_WIDTHS,
    benchmarks: Sequence[str] = INT_BENCHMARKS,
) -> FigureResult:
    """PRI speedups for the SPECint suite (Figure 10)."""
    return _scheme_speedup_figure(
        "Figure 10: PRI speed-up, SPEC2000 integer", benchmarks, widths,
        results)


def figure12(
    results: Results,
    widths: Sequence[int] = _DEFAULT_WIDTHS,
    benchmarks: Sequence[str] = FP_BENCHMARKS,
) -> FigureResult:
    """PRI speedups for the SPECfp suite (Figure 12)."""
    return _scheme_speedup_figure(
        "Figure 12: PRI speed-up, SPEC2000 floating point", benchmarks,
        widths, results)


# ===================================================================
# Figure 11 — register file occupancy
# ===================================================================

def figure11(
    results: Results,
    widths: Sequence[int] = _DEFAULT_WIDTHS,
    benchmarks: Sequence[str] = INT_BENCHMARKS,
) -> FigureResult:
    """Average integer PRF occupancy for base / ER / PRI / PRI+ER."""
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


# ===================================================================
# Ablations
# ===================================================================

def ablation(name: str, results: Results) -> FigureResult:
    """Render ablation ``name`` of :data:`ABLATIONS` at 4-wide from the
    cells of ``plan(name, (4,))`` in ``results``.

    ``data["values"][label, header]`` is each number in the table, and
    ``data["stats"][label, header]`` the stats of its column's scheme in
    that row (the numerator of a ratio)."""
    cells_view(results, plan(name, (4,)))
    table = ABLATIONS[name]
    values, stats, rows = {}, {}, []
    for label, benchmark, suffix in table.rows:
        for header, attr, scheme, reference in table.columns:
            cell, *ref = _column_cells(benchmark, suffix, scheme, reference)
            stats[label, header] = results[cell]
            value = getattr(results[cell], attr)
            if ref:
                norm = getattr(results[ref[0]], attr)
                value = value / norm if norm else 0.0
            values[label, header] = value
        rows.append([label] + [values[label, c[0]] for c in table.columns])
    return FigureResult(f"Ablation: {table.title}", [format_table(
        "width 4", [table.row_header] + [c[0] for c in table.columns], rows)],
        {"values": values, "stats": stats})
