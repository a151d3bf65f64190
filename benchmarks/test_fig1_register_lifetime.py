"""Figure 1: average physical register lifetime on the base machine,
split into allocate→write / write→last-read / last-read→release.

Shape target (the motivation for the whole paper): the third phase —
after the last read, waiting for the redefiner's commit — dominates the
average lifetime.
"""

from conftest import run_once

from repro.experiments.figures import figure1
from repro.experiments.report import mean


def test_figure1(benchmark, spec, traces, widths):
    result = run_once(benchmark, figure1, spec, widths=widths, traces=traces)

    for width in widths:
        breakdowns = result.data[width]
        dead = mean([b.last_read_to_release for b in breakdowns])
        alloc = mean([b.alloc_to_write for b in breakdowns])
        live = mean([b.write_to_last_read for b in breakdowns])
        total = dead + alloc + live
        # Phase 3 dominates (paper: clearly the largest of the three).
        assert dead > alloc
        assert dead > live
        assert dead / total > 0.4
        # Lifetimes are tens of cycles, not single digits (Figure 1's
        # axis runs to ~140 cycles).
        assert 15 < total < 400
