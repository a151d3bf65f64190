"""Parallel experiment execution must be bit-identical to serial."""

import os

from repro.experiments.runner import RunSpec, TraceCache, run_cells, run_matrix

_SPEC = RunSpec(length=300, warmup=600, seed=7)
_PRI = "PRI-refcount+ckptcount"


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


def test_one_cell_runs_on_a_one_worker_farm(monkeypatch):
    import repro.farm.broker as broker

    real = broker.run_cells_farm
    workers = []

    def spy(cells, spec, farm, *args, **kwargs):
        workers.append(farm.workers)
        return real(cells, spec, farm, *args, **kwargs)

    monkeypatch.setattr(broker, "run_cells_farm", spy)
    result = run_matrix(["gzip"], ["base"], 4, _SPEC, jobs=4)
    assert result["gzip"]["base"].committed == 300
    assert workers == [1]


def test_parallel_run_builds_each_trace_once(tmp_path, monkeypatch):
    """One farm for both widths, and workers that claim the cells of the
    traces they hold: each trace is built once, plus at most one steal
    per worker when the tail is balanced."""
    import repro.experiments.runner as runner

    cells = [(b, s, w) for b in ("gzip", "mcf", "gcc")
             for s in ("base", _PRI) for w in (4, 8)]
    serial = run_cells(cells, _SPEC, TraceCache())
    log = tmp_path / "builds.log"
    real = runner.generate_trace

    def logged(benchmark, *args, **kwargs):
        # The workers fork from this process, so they inherit the patch.
        with open(log, "a") as handle:
            handle.write(f"{benchmark} {os.getpid()}\n")
        return real(benchmark, *args, **kwargs)

    monkeypatch.setattr(runner, "generate_trace", logged)
    parallel = run_cells(cells, _SPEC, jobs=2)
    builds = log.read_text().splitlines()
    workers = {line.split()[1] for line in builds}
    assert {line.split()[0] for line in builds} == {"gzip", "mcf", "gcc"}
    assert len(workers) <= 2
    assert len(set(builds)) == len(builds)  # no worker builds one twice
    assert len(builds) <= 3 + len(workers)  # at most one steal per worker
    assert {c: s.to_dict() for c, s in parallel.items()} == \
        {c: s.to_dict() for c, s in serial.items()}


def test_figure_driver_accepts_jobs():
    from repro.experiments.figures import figure10, plan

    benchmarks = ("gzip", "mcf")
    cells = plan("figure10", (4,), benchmarks)
    parallel = figure10(_SPEC, widths=(4,), benchmarks=benchmarks,
                        results=run_cells(cells, _SPEC, jobs=2))
    serial = figure10(_SPEC, widths=(4,), benchmarks=benchmarks,
                      traces=TraceCache())
    assert set(parallel.data[4]["speedups"]) == set(benchmarks)
    assert parallel.render() == serial.render()
