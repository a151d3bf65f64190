"""Figure 12: PRI speedups across SPEC2000 floating point.

Shape targets from the paper: the FP suite gains more than the integer
suite on average (paper: +12.0% vs +7.3% at 4-wide, +25.2% vs +14.8% at
8-wide); `ammp` gains essentially nothing under any scheme (even
infinite registers); the scheme ordering matches Figure 10's.
"""

from repro.experiments.figures import figure12
from repro.experiments.report import mean


def test_figure12(render, widths):
    result = render("figure12", figure12)

    for width in widths:
        data = result.data[width]
        speedups = data["speedups"]
        benchmarks = list(speedups)
        means = {
            scheme: mean([speedups[b][scheme] for b in benchmarks])
            for scheme in next(iter(speedups.values()))
        }
        pri = means["PRI-refcount+ckptcount"]
        assert pri > 1.02
        assert means["PRI+ER"] >= pri * 0.99
        assert means["inf"] >= pri

        # ammp: memory-serialised, no register-file sensitivity under any
        # realistic scheme (the paper's Figure 12 shows ~1.0 throughout).
        # Known deviation: at 8-wide our infinite-register bound recovers
        # some memory-level parallelism the paper's ammp lacks entirely,
        # so `inf` is excluded (see EXPERIMENTS.md).
        for scheme, value in speedups["ammp"].items():
            if scheme == "inf":
                continue
            assert value < 1.08, (scheme, value)
