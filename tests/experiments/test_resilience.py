"""Fault-tolerant sweep execution: crash isolation, the fixed rerun
budget, the cycle watchdog, and the on-disk sweep journal."""

import os

import pytest

from repro.core.stats import SimStats
from repro.experiments import (
    CellError,
    MatrixError,
    RunSpec,
    SweepInterrupted,
    SweepJournal,
    cell_key,
    matrix_errors,
    run_cells,
    run_matrix,
    run_one,
)
from repro.farm.broker import CRASH_RERUNS

_SPEC = RunSpec(length=300, warmup=600, seed=2)
_PRI = "PRI-refcount+ckptcount"


def _crash_pri(benchmark, scheme, width, spec, traces=None):
    if scheme == _PRI:
        os._exit(9)  # simulates a segfault/OOM-kill: no exception, no result
    return run_one(benchmark, scheme, width, spec, traces)


def _raise_pri(benchmark, scheme, width, spec, traces=None):
    if scheme == _PRI:
        raise ValueError("deterministic failure")
    return run_one(benchmark, scheme, width, spec, traces)


def _recorded(benchmarks, schemes, **options):
    """``run_cells`` over the 4-wide benchmarks x schemes rectangle, as a
    [benchmark][scheme] matrix that keeps each failed cell's
    :class:`CellError`."""
    results = run_cells([(b, s, 4) for b in benchmarks for s in schemes],
                        _SPEC, **options)
    return {b: {s: results[b, s, 4] for s in schemes} for b in benchmarks}


def test_crashing_cell_yields_partial_results():
    results = _recorded(["gzip"], ["base", _PRI], jobs=2, cell_fn=_crash_pri)
    ok = results["gzip"]["base"]
    assert isinstance(ok, SimStats) and ok.committed == 300
    err = results["gzip"][_PRI]
    assert isinstance(err, CellError)
    assert err.kind == "crash"
    assert "exit code 9" in err.message
    assert matrix_errors(results) == [err]


def test_crashing_cell_raises_matrix_error_with_partials():
    with pytest.raises(MatrixError) as excinfo:
        run_matrix(["gzip"], ["base", _PRI], 4, _SPEC, jobs=2,
                   cell_fn=_crash_pri)
    err = excinfo.value
    assert len(err.errors) == 1 and err.errors[0].kind == "crash"
    assert err.results["gzip"]["base"].committed == 300


def test_cycle_watchdog_fails_a_worker_cell_as_an_error():
    """A cell that cannot finish in ``max_cycles`` fails on its worker
    as a deterministic ``error`` naming the watchdog: attempt 1, no
    rerun, no wall-clock bound needed."""
    tight = RunSpec(length=300, warmup=600, seed=2, max_cycles=20)
    results = run_cells([("gzip", "base", 4), ("gzip", _PRI, 4)], tight,
                        jobs=2)
    for err in results.values():
        assert isinstance(err, CellError)
        assert err.kind == "error"
        assert err.error_type == "SimulationError"
        assert "cycle-limit watchdog" in err.message
        assert err.attempts == 1


def test_crash_is_retried(tmp_path):
    marker = tmp_path / "attempts"

    def counting_crash(benchmark, scheme, width, spec, traces=None):
        with open(marker, "a") as handle:
            handle.write("x")
        os._exit(9)

    results = _recorded(["gzip"], ["base"], jobs=2, cell_fn=counting_crash)
    err = results["gzip"]["base"]
    assert isinstance(err, CellError) and err.kind == "crash"
    assert err.attempts == CRASH_RERUNS + 1
    assert marker.read_text() == "x" * (CRASH_RERUNS + 1)


def test_deterministic_error_is_not_retried():
    results = _recorded(["gzip"], ["base", _PRI], jobs=2, cell_fn=_raise_pri)
    err = results["gzip"][_PRI]
    assert isinstance(err, CellError)
    assert err.kind == "error"
    assert err.error_type == "ValueError"
    assert err.attempts == 1


def test_serial_path_records_errors_too():
    results = _recorded(["gzip"], ["base", _PRI], jobs=1, cell_fn=_raise_pri)
    err = results["gzip"][_PRI]
    assert isinstance(err, CellError) and err.kind == "error"
    assert results["gzip"]["base"].committed == 300


def test_max_cycles_watchdog_fails_cell():
    tight = RunSpec(length=300, warmup=600, seed=2, max_cycles=20)
    with pytest.raises(Exception, match="watchdog"):
        run_one("gzip", "base", 4, tight)


# ------------------------------------------------------------- journal


def test_journal_roundtrip(tmp_path):
    path = tmp_path / "sweep.json"
    stats = run_one("gzip", "base", 4, _SPEC)
    journal = SweepJournal(str(path))
    key = cell_key("gzip", "base", 4, _SPEC)
    journal.record_ok(key, stats)

    reloaded = SweepJournal(str(path))
    restored = reloaded.get(key)
    assert restored is not None
    assert restored.ipc == stats.ipc
    assert restored.committed == stats.committed
    assert restored.lifetimes["int"].avg_total == stats.lifetimes["int"].avg_total


def test_journal_resume_skips_completed_cells(tmp_path):
    path = str(tmp_path / "sweep.json")
    first = run_matrix(["gzip"], ["base", "ER"], 4, _SPEC, journal=path)

    marker = tmp_path / "calls"

    def counting(benchmark, scheme, width, spec, traces=None):
        with open(marker, "a") as handle:
            handle.write("x")
        return run_one(benchmark, scheme, width, spec, traces)

    second = run_matrix(["gzip"], ["base", "ER"], 4, _SPEC, journal=path,
                        cell_fn=counting)
    assert not marker.exists(), "journaled cells were re-simulated"
    assert second["gzip"]["base"].ipc == first["gzip"]["base"].ipc
    assert second["gzip"]["ER"].ipc == first["gzip"]["ER"].ipc


def test_interrupt_hands_back_the_finished_cells(tmp_path):
    """Ctrl-C on the third cell: run_cells raises SweepInterrupted with
    the two finished cells, both already journaled."""
    cells = [("gzip", s, 4) for s in ("base", "ER", _PRI, "PRI+ER")]
    calls = []

    def interrupt_third(benchmark, scheme, width, spec, traces=None):
        calls.append(scheme)
        if len(calls) == 3:
            raise KeyboardInterrupt
        return run_one(benchmark, scheme, width, spec, traces)

    path = str(tmp_path / "sweep.json")
    with pytest.raises(SweepInterrupted) as info:
        run_cells(cells, _SPEC, journal=path, cell_fn=interrupt_third)
    assert list(info.value.results) == cells[:2]
    journal = SweepJournal(path)
    assert all(journal.get(cell_key(*cell, _SPEC)) is not None
               for cell in cells[:2])


def test_journal_records_and_heals_errors(tmp_path):
    path = str(tmp_path / "sweep.json")
    results = _recorded(["gzip"], ["base", _PRI], jobs=2, journal=path,
                        cell_fn=_crash_pri)
    assert isinstance(results["gzip"][_PRI], CellError)
    journal = SweepJournal(path)
    assert journal.completed == 1
    assert len(journal.errors()) == 1

    # a re-run retries only the failed cell, and the journal heals
    healed = run_matrix(["gzip"], ["base", _PRI], 4, _SPEC, jobs=2,
                        journal=path)
    assert healed["gzip"][_PRI].committed == 300
    reloaded = SweepJournal(path)
    assert reloaded.completed == 2
    assert not reloaded.errors()


def test_journal_key_distinguishes_spec(tmp_path):
    other = RunSpec(length=300, warmup=600, seed=3)
    assert cell_key("gzip", "base", 4, _SPEC) != cell_key("gzip", "base", 4, other)
    assert cell_key("gzip", "base", 4, _SPEC) != cell_key("gzip", "base", 8, _SPEC)

    path = str(tmp_path / "sweep.json")
    run_matrix(["gzip"], ["base"], 4, _SPEC, journal=path)
    journal = SweepJournal(path)
    assert journal.get(cell_key("gzip", "base", 4, other)) is None


def test_parallel_with_resilience_matches_serial():
    serial = run_matrix(["gzip", "mcf"], ["base", _PRI], 4, _SPEC, jobs=1)
    parallel = run_matrix(["gzip", "mcf"], ["base", _PRI], 4, _SPEC, jobs=4)
    for benchmark in ("gzip", "mcf"):
        for scheme in ("base", _PRI):
            assert serial[benchmark][scheme].ipc == parallel[benchmark][scheme].ipc
