"""CLI entry point tests (python -m repro.experiments)."""

import os

import pytest

from repro.config import config_digest
from repro.core.machine import Machine
from repro.experiments import SweepJournal
from repro.experiments.__main__ import main

#: Table 2, Figure 1 (a subset of Table 2's cells) and Figure 9 (whose
#: PR=64 column is Table 2's base cell) at smoke scale: 105 distinct
#: cells — 27 base cells plus 13 benchmarks x 6 other register sizes.
_SHARED_CELLS = ["--table", "2", "--figure", "1", "--figure", "9",
                 "--width", "4", "--length", "50", "--warmup", "200"]


@pytest.fixture
def runs(monkeypatch):
    """(benchmark, config digest) of every ``Machine.run`` call."""
    calls = []
    original = Machine.run

    def counted(self, trace, *args, **kwargs):
        calls.append((trace.name, config_digest(self.cfg)))
        return original(self, trace, *args, **kwargs)

    monkeypatch.setattr(Machine, "run", counted)
    return calls


def test_requires_a_target(capsys):
    with pytest.raises(SystemExit):
        main([])


def test_table_1(capsys):
    assert main(["--table", "1"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out
    assert "4-wide" in out and "8-wide" in out


def test_single_figure_tiny(capsys):
    code = main(["--figure", "1", "--length", "120", "--warmup", "300",
                 "--width", "4"])
    assert code == 0
    out = capsys.readouterr().out
    assert "Figure 1" in out
    assert "last-read->release" in out
    assert "width 8" not in out  # restricted to one width


@pytest.mark.parametrize(("flag", "value"), [
    ("--length", "0"), ("--warmup", "-1"), ("--jobs", "-2"),
    ("--retries", "-1"), ("--max-cycles", "0"),
    ("--cell-timeout", "0"),
    ("--cell-timeout", "-1"), ("--lease-ttl", "0"), ("--heartbeat", "0"),
    ("--grace", "-1"), ("--farm-workers", "-1"),
])
def test_rejects_out_of_range_numbers(flag, value, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--figure", "1", "--width", "4", flag, value])
    assert excinfo.value.code == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize(("flag", "value"), [
    ("--cell-timeout", "600"), ("--retries", "2"), ("--farm-workers", "4"),
    ("--lease-ttl", "5"), ("--heartbeat", "0.2"), ("--grace", "5"),
    ("--farm", "DIR"), ("--farm-inject", "kill"),
])
def test_retired_recovery_flags_are_usage_errors(flag, value, capsys):
    """Sweep recovery is one fixed policy (``repro.experiments.pool``)
    and ``--jobs`` is the only worker setting: these flags are gone."""
    with pytest.raises(SystemExit) as excinfo:
        main(["--figure", "1", "--width", "4", flag, value])
    assert excinfo.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_rejects_unknown_figure():
    with pytest.raises(SystemExit):
        main(["--figure", "3"])  # Figure 3 is a structural diagram


def test_figure_with_oracle(capsys):
    code = main(["--figure", "1", "--length", "120", "--warmup", "300",
                 "--width", "4", "--oracle"])
    assert code == 0
    assert "Figure 1" in capsys.readouterr().out


def test_incompatible_journal_is_reported(tmp_path, capsys):
    import json

    path = str(tmp_path / "sweep.json")
    with open(path, "w") as fh:
        json.dump({"version": 1, "cells": {}}, fh)
    code = main(["--figure", "1", "--length", "120", "--warmup", "300",
                 "--width", "4", "--journal", path])
    assert code == 1
    err = capsys.readouterr().err
    assert "version" in err


def test_simulates_each_distinct_cell_once(runs, capsys):
    assert main(_SHARED_CELLS) == 0
    assert len(runs) == len(set(runs)) == 105
    out = capsys.readouterr().out
    assert "Table 2" in out and "Figure 1" in out and "Figure 9" in out


def test_interrupt_renders_the_finished_tables(monkeypatch, capsys):
    """Ctrl-C on the 30th cell: Table 2's 27 cells ran first, so Tables 1
    and 2 render; Figure 11 lacks cells and does not.  Exit 130 with the
    re-run hint."""
    import repro.experiments.runner as runner

    real = runner.run_one
    calls = []

    def interrupt_30th(*args, **kwargs):
        calls.append(args)
        if len(calls) == 30:
            raise KeyboardInterrupt
        return real(*args, **kwargs)

    monkeypatch.setattr(runner, "run_one", interrupt_30th)
    code = main(["--table", "1", "--table", "2", "--figure", "11",
                 "--width", "4", "--length", "50", "--warmup", "100"])
    assert code == 130
    captured = capsys.readouterr()
    assert "Table 1" in captured.out and "Table 2" in captured.out
    assert "Figure 11" not in captured.out
    assert "interrupted: sweep drained cleanly" in captured.err
    assert "re-run with: python -m repro.experiments" in captured.err


def test_table2_and_figure9_resume_from_the_journal(runs, tmp_path, capsys):
    argv = _SHARED_CELLS + ["--journal", str(tmp_path / "sweep.json")]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert len(runs) == 105
    assert main(argv) == 0
    assert len(runs) == 105  # every cell restored, none simulated
    assert capsys.readouterr().out == first


def test_failed_cells_fail_their_figure_after_the_rest_ran(tmp_path, capsys):
    """ammp needs ~4,000 cycles for 50 instructions; every other
    benchmark fewer than 2,000.  Its cells fail Table 2 and Figure 12,
    while Figure 1 (rendered between them) renders and every other cell
    is journaled."""
    path = str(tmp_path / "sweep.json")
    code = main(["--table", "2", "--figure", "1", "--figure", "12",
                 "--width", "4", "--length", "50", "--warmup", "200",
                 "--max-cycles", "2000", "--journal", path])
    assert code == 1
    captured = capsys.readouterr()
    assert "Figure 1" in captured.out
    assert "Table 2" not in captured.out and "Figure 12" not in captured.out
    assert "table 2 failed: 1 sweep cell(s) did not complete" in captured.err
    assert "figure 12 failed: 8 sweep cell(s) did not complete" in captured.err
    assert "ammp/base: error [SimulationError] cycle-limit watchdog" in \
        captured.err
    journal = SweepJournal(path)
    assert journal.completed == 13 + 13 * 8  # ammp's 8 as errors
    assert len(journal.errors()) == 8


def test_jobs_run_matches_serial_and_resumes(tmp_path, capsys, monkeypatch):
    """``--jobs 3 --journal J`` prints what the serial run prints, on
    three worker processes; the same command again restores every cell
    from the journal and simulates none."""
    argv = ["--figure", "11", "--width", "4", "--length", "200",
            "--warmup", "800"]
    assert main(argv) == 0
    serial = capsys.readouterr().out

    log = tmp_path / "runs.log"
    original = Machine.run

    def logged(self, *args, **kwargs):
        with open(log, "a") as handle:  # forked workers inherit the patch
            handle.write(f"{os.getpid()}\n")
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Machine, "run", logged)
    parallel = argv + ["--jobs", "3", "--journal", str(tmp_path / "j")]
    assert main(parallel) == 0
    assert capsys.readouterr().out == serial
    pids = log.read_text().split()
    assert len(pids) == 52
    # All three workers simulate some of the 52 cells; the parent none.
    assert len(set(pids)) == 3 and str(os.getpid()) not in pids

    log.unlink()
    assert main(parallel) == 0
    assert capsys.readouterr().out == serial
    assert not log.exists(), "journaled cells were re-simulated"
