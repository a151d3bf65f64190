"""Figure 8: register lifetime reduction from PRI and PRI+ER.

Shape targets: PRI cuts the average lifetime versus base; PRI+ER cuts it
at least as much; the reduction comes out of the last-read→release phase.
"""

from conftest import run_once

from repro.experiments.figures import figure8
from repro.experiments.report import mean


def test_figure8(benchmark, spec, traces, widths):
    result = run_once(benchmark, figure8, spec, widths=widths, traces=traces)

    for width in widths:
        data = result.data[width]
        base = mean([data[b]["base"].total for b in data])
        pri = mean([data[b]["PRI"].total for b in data])
        both = mean([data[b]["PRI+ER"].total for b in data])
        assert pri < base * 0.97
        assert both < base * 0.95
        assert both <= pri * 1.02

        base_dead = mean([data[b]["base"].last_read_to_release for b in data])
        both_dead = mean([data[b]["PRI+ER"].last_read_to_release for b in data])
        assert both_dead < base_dead
