"""Figure 10: PRI speedups across SPEC2000 integer.

Shape targets from the paper:

* PRI (refcount+ckptcount) clearly beats the baseline on average
  (paper: +7.3% at 4-wide, +14.8% at 8-wide);
* PRI beats prior-work ER on average (paper: by 3.7% / 9.2%);
* lazy checkpointing >= checkpoint counting; ideal payload update >=
  reference counting (each by a small margin);
* PRI+ER beats PRI alone;
* infinite registers bound everything from above.
"""

from conftest import run_once

from repro.experiments.figures import figure10
from repro.experiments.report import mean


def _scheme_means(data, benchmarks):
    speedups = data["speedups"]
    return {
        scheme: mean([speedups[b][scheme] for b in benchmarks])
        for scheme in next(iter(speedups.values()))
    }


def test_figure10(benchmark, spec, traces, widths):
    result = run_once(benchmark, figure10, spec, widths=widths, traces=traces)

    for width in widths:
        data = result.data[width]
        benchmarks = list(data["speedups"])
        means = _scheme_means(data, benchmarks)

        pri = means["PRI-refcount+ckptcount"]
        assert 1.02 < pri < 1.5, pri  # paper: 1.073 (4w) / 1.148 (8w)
        assert pri > means["ER"]
        assert means["PRI-refcount+lazy"] >= pri * 0.995
        assert means["PRI-ideal+ckptcount"] >= pri * 0.995
        assert means["PRI-ideal+lazy"] >= means["PRI-refcount+lazy"] * 0.995
        assert means["PRI+ER"] >= pri * 0.99
        for scheme, value in means.items():
            assert means["inf"] >= value * 0.99, scheme

        if width == 8:
            # The aggressive machine gains more from PRI (paper: 14.8%
            # vs 7.3%); compare against the 4-wide run when present.
            if 4 in result.data:
                means4 = _scheme_means(result.data[4],
                                       list(result.data[4]["speedups"]))
                assert means["PRI-refcount+ckptcount"] >= \
                    means4["PRI-refcount+ckptcount"] - 0.01
