"""Experiment harness: drivers that regenerate every table and figure of
the paper's evaluation (see DESIGN.md §5 for the index).

Command line::

    python -m repro.experiments --all            # everything (slow)
    python -m repro.experiments --figure 10      # one figure
    python -m repro.experiments --table 2        # one table
    python -m repro.experiments --figure 9 --length 4000 --width 4
"""

from repro.experiments.runner import (
    SCHEMES,
    FIGURE10_SCHEMES,
    INT_BENCHMARKS,
    FP_BENCHMARKS,
    CellError,
    MatrixError,
    RunSpec,
    SweepInterrupted,
    TraceCache,
    matrix_errors,
    run_cells,
    run_one,
    run_matrix,
    speedups_over_base,
    width_config,
)
from repro.experiments.journal import SweepJournal, cell_key
from repro.experiments.figures import (
    FigureResult,
    figure1,
    figure2,
    figure8,
    figure9,
    figure10,
    figure11,
    figure12,
)
from repro.experiments.tables import table1, table2

__all__ = [
    "SCHEMES",
    "FIGURE10_SCHEMES",
    "INT_BENCHMARKS",
    "FP_BENCHMARKS",
    "CellError",
    "MatrixError",
    "RunSpec",
    "SweepJournal",
    "SweepInterrupted",
    "TraceCache",
    "cell_key",
    "matrix_errors",
    "run_cells",
    "run_one",
    "run_matrix",
    "speedups_over_base",
    "width_config",
    "FigureResult",
    "figure1",
    "figure2",
    "figure8",
    "figure9",
    "figure10",
    "figure11",
    "figure12",
    "table1",
    "table2",
]
