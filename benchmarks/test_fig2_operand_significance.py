"""Figure 2: dynamic cumulative distribution of operand significance.

Shape targets quoted in the paper: ~10 bits cover about half of all
integer operands (worst case ~23%, best ~82%); about 77% of FP exponents
and about 54% of FP significands contain only zeroes or ones; roughly
half of FP operands are entirely zero.
"""

from conftest import BENCH_LENGTH, run_once

from repro.experiments.figures import figure2
from repro.experiments.report import mean


def test_figure2(benchmark):
    result = run_once(benchmark, figure2, length=max(4 * BENCH_LENGTH, 8000),
                      seed=1)

    int_cdfs = result.data["int"]
    at10 = {name: cdf[10] for name, cdf in int_cdfs.items()}
    assert 0.15 <= min(at10.values()) <= 0.35   # paper worst case 23%
    assert 0.70 <= max(at10.values()) <= 0.90   # paper best case 82%
    assert 0.40 <= mean(list(at10.values())) <= 0.65  # "approximately half"
    assert min(at10, key=at10.get) == "crafty"
    assert max(at10, key=at10.get) == "gzip"

    fp = result.data["fp"]
    exp_zero = mean([fp[n][0][0] for n in fp])
    sig_zero = mean([fp[n][1][0] for n in fp])
    assert 0.65 <= exp_zero <= 0.90  # paper: about 77%
    assert 0.40 <= sig_zero <= 0.70  # paper: about 54%
