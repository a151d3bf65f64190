"""Parallel experiment execution must be bit-identical to serial."""


from repro.experiments.runner import RunSpec, TraceCache, run_matrix

_SPEC = RunSpec(length=300, warmup=600, seed=7)


def test_parallel_matches_serial():
    benchmarks = ["gzip", "mcf"]
    schemes = ["base", "PRI-refcount+ckptcount"]
    serial = run_matrix(benchmarks, schemes, 4, _SPEC, TraceCache())
    parallel = run_matrix(benchmarks, schemes, 4, _SPEC, jobs=2)
    for b in benchmarks:
        for s in schemes:
            assert serial[b][s].cycles == parallel[b][s].cycles
            assert serial[b][s].committed == parallel[b][s].committed
            assert serial[b][s].inlined == parallel[b][s].inlined


def test_single_benchmark_stays_serial():
    result = run_matrix(["gzip"], ["base"], 4, _SPEC, jobs=4)
    assert result["gzip"]["base"].committed == 300


def test_figure_driver_accepts_jobs():
    from repro.experiments.figures import figure10, plan
    from repro.experiments.runner import run_cells

    benchmarks = ("gzip", "mcf")
    cells = plan("figure10", (4,), benchmarks)
    parallel = figure10(_SPEC, widths=(4,), benchmarks=benchmarks,
                        results=run_cells(cells, _SPEC, jobs=2))
    serial = figure10(_SPEC, widths=(4,), benchmarks=benchmarks,
                      traces=TraceCache())
    assert set(parallel.data[4]["speedups"]) == set(benchmarks)
    assert parallel.render() == serial.render()
