"""Figure 9: base-machine sensitivity to physical register file size
(PR in {40, 48, 56, 64, 72, 80, 96}, speedup normalized to PR=40).

Shape targets: speedup is monotone (non-decreasing, within noise) in the
register count, and the growth from 64 to 96 registers is modest compared
to the growth from 40 to 64 — the paper's justification for choosing 64.
"""

from repro.config import PRF_SWEEP_SIZES
from repro.experiments.figures import figure9
from repro.experiments.report import mean


def test_figure9(render, widths):
    result = render("figure9", figure9)

    for width in widths:
        data = result.data[width]
        benchmarks = list(data)
        means = {
            size: mean([data[b][size] for b in benchmarks])
            for size in PRF_SWEEP_SIZES
        }
        # Monotone on average (allow tiny noise between adjacent sizes).
        sizes = list(PRF_SWEEP_SIZES)
        for a, b in zip(sizes, sizes[1:]):
            assert means[b] >= means[a] - 0.02, (a, b)
        # Diminishing returns: 40->64 gains more than 64->96.
        assert means[64] - means[40] > means[96] - means[64]
        # There IS register pressure at 40 (the sweep is meaningful).
        assert means[96] > 1.05
