"""Parallel experiment execution must be bit-identical to serial."""

import os

import pytest

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


def test_one_cell_runs_on_one_worker(monkeypatch):
    import repro.experiments.pool as pool

    real = pool._Worker
    spawned = []

    def spy(*args, **kwargs):
        spawned.append(real(*args, **kwargs))
        return spawned[-1]

    monkeypatch.setattr(pool, "_Worker", spy)
    result = run_matrix(["gzip"], ["base"], 4, _SPEC, jobs=4)
    assert result["gzip"]["base"].committed == 300
    assert len(spawned) == 1


def test_parallel_run_builds_each_trace_once(tmp_path, monkeypatch):
    """One pool for both widths, and workers that get the cells of the
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
    parallel = figure10(run_cells(cells, _SPEC, jobs=2), widths=(4,),
                        benchmarks=benchmarks)
    serial = figure10(run_cells(cells, _SPEC, TraceCache()), widths=(4,),
                      benchmarks=benchmarks)
    assert set(parallel.data[4]["speedups"]) == set(benchmarks)
    assert parallel.render() == serial.render()


@pytest.fixture
def io_log(tmp_path):
    """Log every store I/O event, worker processes' included, to a file
    (the observer is forked into the workers along with the store
    module).  Yields a function that reads the log as ``(op, path)``
    pairs."""
    from repro.store import add_io_observer, remove_io_observer

    log = tmp_path / "io.log"

    def observe(event):
        fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
        try:
            os.write(fd, f"{event['op']}\t{event['path']}\n".encode())
        finally:
            os.close(fd)

    add_io_observer(observe)

    def read():
        lines = log.read_text().splitlines() if log.exists() else []
        return [tuple(line.split("\t")) for line in lines]

    yield read
    remove_io_observer(observe)


def test_jobs_run_without_journal_writes_nothing(io_log):
    """Workers talk to the parent through pipes: a ``--jobs`` run with
    no journal writes no file and makes no fsync."""
    cells = [(b, s, 4) for b in ("gzip", "mcf") for s in ("base", _PRI)]
    spec = RunSpec(length=100, warmup=500, seed=1)
    serial = run_cells(cells, spec, TraceCache())
    parallel = run_cells(cells, spec, jobs=2)
    assert io_log() == []
    assert {c: s.to_dict() for c, s in parallel.items()} == \
        {c: s.to_dict() for c, s in serial.items()}
