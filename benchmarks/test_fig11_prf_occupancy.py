"""Figure 11: average integer PRF occupancy for base / ER / PRI / PRI+ER.

Shape targets: every reclamation scheme lowers average occupancy below
the base machine; PRI+ER is lowest (or tied); occupancy stays within the
physically possible range (31 committed + in-flight <= 64).
"""

from conftest import run_once

from repro.experiments.figures import figure11
from repro.experiments.report import mean


def test_figure11(benchmark, spec, traces, widths):
    result = run_once(benchmark, figure11, spec, widths=widths, traces=traces)

    for width in widths:
        data = result.data[width]
        benchmarks = list(data)
        means = {
            label: mean([data[b][label] for b in benchmarks])
            for label in ("base", "ER", "PRI", "PRI+ER")
        }
        assert 31 <= means["base"] <= 64
        assert means["ER"] < means["base"]
        assert means["PRI"] < means["base"]
        assert means["PRI+ER"] <= min(means["ER"], means["PRI"]) * 1.02
