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
    parallel = figure10(run_cells(cells, _SPEC, jobs=2), widths=(4,),
                        benchmarks=benchmarks)
    serial = figure10(run_cells(cells, _SPEC, TraceCache()), widths=(4,),
                      benchmarks=benchmarks)
    assert set(parallel.data[4]["speedups"]) == set(benchmarks)
    assert parallel.render() == serial.render()


@pytest.fixture
def io_log(tmp_path, monkeypatch):
    """Route temporary directories under ``tmp_path`` and log every I/O
    event, worker processes' included, to a file (the observer is forked
    into the workers along with the store module).  Yields a function
    that reads the log as ``(op, path)`` pairs."""
    import tempfile

    from repro.store import add_io_observer, remove_io_observer

    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
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


def test_jobs_root_skips_fsync_and_farm_root_keeps_it(tmp_path, io_log):
    """A plain ``--jobs`` run's temporary root is deleted on return, so
    its claims and results are not fsynced; a ``--farm`` root, which a
    later run resumes, keeps every fsync."""
    from repro.farm import FarmSpec

    read = io_log
    cells = [(b, s, 4) for b in ("gzip", "mcf") for s in ("base", _PRI)]
    spec = RunSpec(length=100, warmup=500, seed=1)
    serial = run_cells(cells, spec, TraceCache())

    parallel = run_cells(cells, spec, jobs=2)
    events = read()
    jobs_root = [(op, path) for op, path in events if "repro-jobs-" in path]
    # The workers wrote the cell, lease and result files under the root...
    assert {os.path.basename(os.path.dirname(path))
            for op, path in jobs_root if op == "write"} >= {
        "cells", "leases", "results"}
    # ... and fsynced none of them.
    assert not [e for e in jobs_root if e[0] in ("fsync", "fsync_dir")]

    farm = FarmSpec(root=str(tmp_path / "farm"), workers=2)
    farmed = run_cells(cells, spec, farm=farm)
    synced = [(op, os.path.relpath(path, farm.root).split(os.sep)[0])
              for op, path in read()[len(events):]
              if op in ("fsync", "fsync_dir")]
    for directory in ("cells", "leases", "results"):
        assert synced.count(("fsync", directory)) == len(cells)
    for directory in ("cells", "results"):
        assert synced.count(("fsync_dir", directory)) == len(cells)
    assert synced.count(("fsync", "journal.json")) >= len(cells)
    for results in (parallel, farmed):
        assert {c: s.to_dict() for c, s in results.items()} == \
            {c: s.to_dict() for c, s in serial.items()}
