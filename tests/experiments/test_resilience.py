"""Fault-tolerant sweep execution: crash isolation, timeouts, retries,
and the on-disk sweep journal."""

import os
import time

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

_SPEC = RunSpec(length=300, warmup=600, seed=2)
_PRI = "PRI-refcount+ckptcount"


def _crash_pri(benchmark, scheme, width, spec, traces=None):
    if scheme == _PRI:
        os._exit(9)  # simulates a segfault/OOM-kill: no exception, no result
    return run_one(benchmark, scheme, width, spec, traces)


def _hang_pri(benchmark, scheme, width, spec, traces=None):
    if scheme == _PRI:
        time.sleep(60)
    return run_one(benchmark, scheme, width, spec, traces)


def _raise_pri(benchmark, scheme, width, spec, traces=None):
    if scheme == _PRI:
        raise ValueError("deterministic failure")
    return run_one(benchmark, scheme, width, spec, traces)


def test_crashing_cell_yields_partial_results():
    results = run_matrix(
        ["gzip"], ["base", _PRI], 4, _SPEC, jobs=2,
        on_error="record", cell_fn=_crash_pri,
    )
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


def test_hanging_cell_times_out():
    start = time.monotonic()
    results = run_matrix(
        ["gzip"], ["base", _PRI], 4, _SPEC, jobs=2,
        on_error="record", cell_timeout=2.0, cell_fn=_hang_pri,
    )
    assert time.monotonic() - start < 30
    err = results["gzip"][_PRI]
    assert isinstance(err, CellError) and err.kind == "timeout"
    assert results["gzip"]["base"].committed == 300


def test_crash_is_retried(tmp_path):
    marker = tmp_path / "attempts"

    def counting_crash(benchmark, scheme, width, spec, traces=None):
        with open(marker, "a") as handle:
            handle.write("x")
        os._exit(9)

    results = run_matrix(
        ["gzip"], ["base"], 4, _SPEC, jobs=2, on_error="record",
        retries=2, retry_backoff=0.01, cell_fn=counting_crash,
    )
    err = results["gzip"]["base"]
    assert isinstance(err, CellError) and err.attempts == 3
    assert marker.read_text() == "xxx"


def test_deterministic_error_is_not_retried():
    results = run_matrix(
        ["gzip"], ["base", _PRI], 4, _SPEC, jobs=2, on_error="record",
        retries=3, retry_backoff=0.01, cell_fn=_raise_pri,
    )
    err = results["gzip"][_PRI]
    assert isinstance(err, CellError)
    assert err.kind == "error"
    assert err.error_type == "ValueError"
    assert err.attempts == 1


def test_serial_path_records_errors_too():
    results = run_matrix(
        ["gzip"], ["base", _PRI], 4, _SPEC, jobs=1,
        on_error="record", cell_fn=_raise_pri,
    )
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
    results = run_matrix(
        ["gzip"], ["base", _PRI], 4, _SPEC, jobs=2,
        on_error="record", journal=path, cell_fn=_crash_pri,
    )
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
    parallel = run_matrix(["gzip", "mcf"], ["base", _PRI], 4, _SPEC, jobs=4,
                          cell_timeout=120.0, retries=1)
    for benchmark in ("gzip", "mcf"):
        for scheme in ("base", _PRI):
            assert serial[benchmark][scheme].ipc == parallel[benchmark][scheme].ipc
