"""Ablation: PRI's inlinable-width threshold.

The paper fixes the threshold at 7 bits (4-wide, 8-bit map entries) and
10 bits (8-wide, 11-bit entries).  This ablation sweeps the threshold to
show the design-space behaviour: more bits inline more values (coverage
follows the Figure 2 CDF) with diminishing performance returns — the
justification for "a slight increase in the map table entry size seems
reasonable".
"""

from conftest import run_once

from repro.experiments.figures import ablation

_THRESHOLDS = (1, 4, 7, 10, 13, 16)
_BENCHMARKS = ("gzip", "mcf", "twolf")


def test_width_threshold_ablation(benchmark, spec, traces):
    result = run_once(benchmark, ablation, "width-threshold", spec, traces)
    speedup, stats = result.data["values"], result.data["stats"]

    for name in _BENCHMARKS:
        # Coverage (inlined count) grows with the threshold.
        inlined = [stats[name, f"{b}b"].inlined for b in _THRESHOLDS]
        assert inlined == sorted(inlined), name
        # The paper's 7-bit point captures most of the benefit available
        # at 16 bits.
        gain7 = speedup[name, "7b"] - 1.0
        gain16 = speedup[name, "16b"] - 1.0
        if gain16 > 0.02:
            assert gain7 >= 0.5 * gain16, name
