"""Table 2: base IPC for every benchmark.

Shape targets: `mcf`, `ammp`, `art`, `vpr_ref`, `galgel` are the
memory-bound stragglers (IPC well below 1); the streaming FP codes
(`applu`, `equake`, `lucas`, `swim`, `wupwise`, `mesa`) sit at the top;
and the suite-wide ordering tracks the paper's Table 2.
"""

from repro.experiments.tables import table2
from repro.workloads import get_profile


def test_table2(render):
    result = render("table2", table2)

    ipc = {}
    for suite in ("integer", "floating point"):
        for row in result.data[suite]:
            ipc[row[0]] = row[1]  # first width's IPC

    # The memory-bound stragglers are at the bottom, as in the paper.
    for slow in ("mcf", "ammp", "art", "vpr_ref", "galgel"):
        assert ipc[slow] < 0.9, slow
    assert ipc["ammp"] < 0.25  # paper: 0.06, by far the slowest

    # The well-behaved codes clear IPC 1 on the 4-wide machine.
    for fast in ("bzip2", "gzip", "eon", "mesa", "wupwise", "equake"):
        assert ipc[fast] > 1.0, fast

    # Rank correlation with the paper's Table 2 (coarse: the order of
    # slow / medium / fast thirds must hold).
    names = sorted(ipc)
    paper = {n: get_profile(n).paper_ipc_4w for n in names}
    agreements = 0
    comparisons = 0
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            if abs(paper[a] - paper[b]) < 0.3:
                continue  # too close to demand ordering agreement
            comparisons += 1
            agreements += (ipc[a] < ipc[b]) == (paper[a] < paper[b])
    assert comparisons > 50
    assert agreements / comparisons > 0.80
