"""The ``--jobs`` worker pool under injected faults.

Faults are driven through ``cell_fn``, which runs in the forked
workers, with a marker file under ``tmp_path`` so a fault fires on a
chosen attempt only.  Every test asserts the pool's contract: each
cell is folded exactly once, a rerun cell's statistics are
bit-identical to a fault-free run, and no worker outlives the call.
"""

import logging
import multiprocessing
import os
import signal
import threading
import time

import pytest

import repro.experiments.pool as pool
from repro.core.machine import Machine
from repro.core.stats import SimStats
from repro.experiments import (
    CellError,
    RunSpec,
    SweepInterrupted,
    SweepJournal,
    cell_key,
    run_cells,
    run_one,
)
from repro.experiments.runner import FIGURE10_SCHEMES, TraceCache

_SPEC = RunSpec(length=300, warmup=600, seed=2)
_PRI = "PRI-refcount+ckptcount"
_BENCH = ("gcc", "mesa")
_CELLS = [(b, s, 4) for b in _BENCH for s in ("base", _PRI)]


@pytest.fixture(scope="module")
def plain():
    """Fault-free serial reference for :data:`_CELLS`."""
    return run_cells(_CELLS, _SPEC, TraceCache())


@pytest.fixture(autouse=True)
def fast_reruns(monkeypatch):
    """Shrink the rerun backoff so crash tests take seconds, and check
    that no test leaves a worker process behind."""
    monkeypatch.setattr(pool, "RERUN_BACKOFF", 0.01)
    yield
    assert multiprocessing.active_children() == []


def _identical(results, reference):
    assert list(results) == list(reference)
    for cell, want in reference.items():
        got = results[cell]
        assert isinstance(got, SimStats), (cell, got)
        assert got.to_dict() == want.to_dict(), cell


def _attempt(marker, cell) -> int:
    """Count one attempt of ``cell`` in ``marker`` (it is appended to
    from the workers); the attempt's number."""
    with open(marker, "a") as handle:
        handle.write(f"{'/'.join(map(str, cell))} {os.getpid()}\n")
    return sum(line.split()[0] == "/".join(map(str, cell))
               for line in marker.read_text().splitlines())


def _pids(marker):
    return {int(line.split()[1]) for line in marker.read_text().splitlines()}


def _assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


# ============================================================ fault-free


def test_pool_matches_serial_run(plain, tmp_path):
    marker = tmp_path / "attempts"

    def counted(benchmark, scheme, width, spec, traces):
        _attempt(marker, (benchmark, scheme, width))
        return run_one(benchmark, scheme, width, spec, traces)

    _identical(run_cells(_CELLS, _SPEC, jobs=2, cell_fn=counted), plain)
    pids = _pids(marker)
    assert len(pids) == 2 and os.getpid() not in pids
    _assert_reaped(pids)


def test_two_widths_run_on_one_pool(monkeypatch):
    real = pool._Worker
    spawned = []

    def spy(*args, **kwargs):
        spawned.append(real(*args, **kwargs))
        return spawned[-1]

    monkeypatch.setattr(pool, "_Worker", spy)
    cells = [(b, "base", w) for b in _BENCH for w in (4, 8)]
    results = run_cells(cells, _SPEC, jobs=2)
    assert all(isinstance(results[c], SimStats) for c in cells)
    assert len(spawned) == 2


def test_worker_cells_carry_no_hook_and_skip_quiet_cycles(tmp_path,
                                                          monkeypatch):
    """A worker runs each cell exactly as a serial run does: its machine
    has no cycle hook, so the cycle loop fast-forwards quiet cycles."""
    log = tmp_path / "machines.log"
    run, quiet_until = Machine.run, Machine._quiet_until

    def counted_quiet_until(self):
        self.quiet_calls = getattr(self, "quiet_calls", 0) + 1
        return quiet_until(self)

    def logged_run(self, *args, **kwargs):
        stats = run(self, *args, **kwargs)
        with open(log, "a") as handle:
            handle.write(f"{os.getpid()} {len(self._cycle_hooks)} "
                         f"{getattr(self, 'quiet_calls', 0)}\n")
        return stats

    # Forked workers inherit the patched class.
    monkeypatch.setattr(Machine, "_quiet_until", counted_quiet_until)
    monkeypatch.setattr(Machine, "run", logged_run)
    results = run_cells(_CELLS, _SPEC, jobs=2)
    assert all(isinstance(results[c], SimStats) for c in _CELLS)
    runs = [tuple(map(int, line.split()))
            for line in log.read_text().splitlines()]
    assert len(runs) == len(_CELLS)
    assert all(pid != os.getpid() for pid, _, _ in runs)
    assert all(hooks == 0 for _, hooks, _ in runs)
    assert all(quiet > 0 for _, _, quiet in runs)


# ============================================================ kill, stop


def test_sigkill_mid_cell_reruns_and_folds_identically(plain, tmp_path,
                                                       caplog):
    """A worker SIGKILLed after simulating, before it answers: the cell
    reruns on a fresh fork and folds the same statistics, and the
    rerun is logged with the cell's key and attempt."""
    marker = tmp_path / "attempts"
    victim = _CELLS[1]

    def kill_once(benchmark, scheme, width, spec, traces):
        stats = run_one(benchmark, scheme, width, spec, traces)
        cell = (benchmark, scheme, width)
        if _attempt(marker, cell) == 1 and cell == victim:
            os.kill(os.getpid(), signal.SIGKILL)
        return stats

    caplog.set_level(logging.WARNING, logger="repro.experiments.pool")
    _identical(run_cells(_CELLS, _SPEC, jobs=2, cell_fn=kill_once), plain)
    lines = marker.read_text().splitlines()
    assert sum(line.startswith("/".join(map(str, victim)) + " ")
               for line in lines) == 2
    key = cell_key(*victim, _SPEC)
    assert f"died with exit code -9 running {key} (attempt 1)" in caplog.text
    assert f"rerunning {key} (attempt 2)" in caplog.text
    _assert_reaped(_pids(marker))


def test_a_cell_folded_before_its_worker_dies_is_never_rerun(plain, tmp_path,
                                                              caplog):
    """A worker SIGKILLed after its result is folded: the death is
    logged, but the cell is neither rerun nor folded a second time, so
    the journal holds every cell exactly once."""
    marker = tmp_path / "attempts"
    path = tmp_path / "journal"
    victim_pid = tmp_path / "victim_pid"
    victim = _CELLS[0]
    folded = cell_key(*victim, _SPEC)

    def die_once_folded():
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if path.exists() and folded in path.read_text():
                os.kill(os.getpid(), signal.SIGKILL)
            time.sleep(0.01)

    def victim_reaped():
        try:
            os.kill(int(victim_pid.read_text()), 0)
        except (FileNotFoundError, ValueError):
            return False  # the victim has not started yet
        except ProcessLookupError:
            return True
        return False

    def fold_then_die(benchmark, scheme, width, spec, traces):
        cell = (benchmark, scheme, width)
        _attempt(marker, cell)
        if cell == victim:
            victim_pid.write_text(str(os.getpid()))
            threading.Thread(target=die_once_folded, daemon=True).start()
        else:
            # Hold the sweep open until the parent has reaped the victim,
            # so its death lands mid-sweep.
            deadline = time.monotonic() + 60
            while not victim_reaped() and time.monotonic() < deadline:
                time.sleep(0.01)
        return run_one(benchmark, scheme, width, spec, traces)

    caplog.set_level(logging.WARNING, logger="repro.experiments.pool")
    results = run_cells(_CELLS, _SPEC, jobs=2, journal=str(path),
                        cell_fn=fold_then_die)
    _identical(results, plain)
    lines = marker.read_text().splitlines()
    assert sum(line.startswith("/".join(map(str, victim)) + " ")
               for line in lines) == 1
    assert "died with exit code -9" in caplog.text
    assert f"rerunning {folded}" not in caplog.text
    assert len(path.read_text().splitlines()) == 1 + len(_CELLS)
    assert SweepJournal(str(path)).completed == len(_CELLS)
    _assert_reaped(_pids(marker))


def test_stopped_worker_is_killed_and_its_cell_reruns(plain, tmp_path,
                                                      monkeypatch, caplog):
    """A SIGSTOPped worker sends no heartbeat: after the stall timeout
    it is SIGKILLed and its cell reruns on a fresh fork."""
    monkeypatch.setattr(pool, "STALL_TIMEOUT", 1.0)
    monkeypatch.setattr(pool, "HEARTBEAT_EVERY", 0.05)
    marker = tmp_path / "attempts"

    def stop_once(benchmark, scheme, width, spec, traces):
        cell = (benchmark, scheme, width)
        if _attempt(marker, cell) == 1 and cell == _CELLS[0]:
            os.kill(os.getpid(), signal.SIGSTOP)
        return run_one(benchmark, scheme, width, spec, traces)

    caplog.set_level(logging.WARNING, logger="repro.experiments.pool")
    _identical(run_cells(_CELLS, _SPEC, jobs=2, cell_fn=stop_once), plain)
    assert "sent nothing for 1s and was killed" in caplog.text
    assert f"rerunning {cell_key(*_CELLS[0], _SPEC)} (attempt 2)" \
        in caplog.text
    _assert_reaped(_pids(marker))


def test_heartbeat_keeps_a_slow_cell_alive(tmp_path, monkeypatch):
    """The heartbeat is a thread: a cell that takes three stall
    timeouts is never killed and completes on attempt 1."""
    monkeypatch.setattr(pool, "STALL_TIMEOUT", 0.5)
    monkeypatch.setattr(pool, "HEARTBEAT_EVERY", 0.05)
    marker = tmp_path / "attempts"

    def slow(benchmark, scheme, width, spec, traces):
        _attempt(marker, (benchmark, scheme, width))
        time.sleep(1.5)
        return run_one(benchmark, scheme, width, spec, traces)

    results = run_cells(_CELLS[:2], _SPEC, jobs=2, cell_fn=slow)
    assert all(isinstance(r, SimStats) for r in results.values())
    assert len(marker.read_text().splitlines()) == 2


def test_dead_worker_reruns_without_waiting_for_the_stall_timeout(tmp_path):
    """A worker that dies is noticed at once through its pipe, not
    after :data:`~repro.experiments.pool.STALL_TIMEOUT`."""
    marker = tmp_path / "attempts"

    def exit_once(benchmark, scheme, width, spec, traces):
        if _attempt(marker, (benchmark, scheme, width)) == 1:
            os._exit(9)
        return run_one(benchmark, scheme, width, spec, traces)

    start = time.monotonic()
    results = run_cells(_CELLS[:1], _SPEC, jobs=2, cell_fn=exit_once)
    assert time.monotonic() - start < pool.STALL_TIMEOUT / 2
    assert isinstance(results[_CELLS[0]], SimStats)


def test_always_crashing_cell_is_a_terminal_crash(tmp_path, caplog):
    marker = tmp_path / "attempts"

    def crash_pri(benchmark, scheme, width, spec, traces):
        if scheme == _PRI:
            _attempt(marker, (benchmark, scheme, width))
            os._exit(9)  # a segfault or OOM kill: no exception, no result
        return run_one(benchmark, scheme, width, spec, traces)

    caplog.set_level(logging.WARNING, logger="repro.experiments.pool")
    results = run_cells(_CELLS[:2], _SPEC, jobs=2, cell_fn=crash_pri)
    assert isinstance(results[_CELLS[0]], SimStats)
    err = results[_CELLS[1]]
    assert isinstance(err, CellError)
    assert err.kind == "crash"
    assert err.attempts == pool.CRASH_RERUNS + 1 == 5
    assert "died with exit code 9 on attempt 5" in err.message
    assert len(marker.read_text().splitlines()) == 5
    assert "crashed on all 5 attempts" in caplog.text
    _assert_reaped(_pids(marker))


def test_deterministic_error_is_never_rerun(tmp_path):
    marker = tmp_path / "attempts"

    def boom(benchmark, scheme, width, spec, traces):
        if scheme == _PRI:
            _attempt(marker, (benchmark, scheme, width))
            raise ValueError(f"injected deterministic failure in {benchmark}")
        return run_one(benchmark, scheme, width, spec, traces)

    results = run_cells(_CELLS, _SPEC, jobs=2, cell_fn=boom)
    for benchmark in _BENCH:
        assert isinstance(results[benchmark, "base", 4], SimStats)
        err = results[benchmark, _PRI, 4]
        assert isinstance(err, CellError)
        assert (err.kind, err.error_type, err.attempts) == \
            ("error", "ValueError", 1)
    assert len(marker.read_text().splitlines()) == 2


def test_figure10_shaped_sweep_under_repeated_kills(tmp_path):
    """Every Figure 10 scheme plus base on two benchmarks, with every
    third cell's worker SIGKILLed on its first attempt: the table equals
    the fault-free run, and the journal holds each cell exactly once."""
    schemes = ("base",) + FIGURE10_SCHEMES
    cells = [(b, s, 4) for b in _BENCH for s in schemes]
    reference = run_cells(cells, _SPEC, TraceCache())
    marker = tmp_path / "attempts"
    victims = set(cells[::3])

    def kill_every_third(benchmark, scheme, width, spec, traces):
        cell = (benchmark, scheme, width)
        if _attempt(marker, cell) == 1 and cell in victims:
            os.kill(os.getpid(), signal.SIGKILL)
        return run_one(benchmark, scheme, width, spec, traces)

    path = tmp_path / "journal"
    results = run_cells(cells, _SPEC, jobs=2, journal=str(path),
                        cell_fn=kill_every_third)
    _identical(results, reference)
    assert len(marker.read_text().splitlines()) == len(cells) + len(victims)
    # One header line plus one line per cell: each folded exactly once.
    assert len(path.read_text().splitlines()) == 1 + len(cells)
    journal = SweepJournal(str(path))
    assert journal.completed == len(cells)
    _assert_reaped(_pids(marker))


# ============================================================ interrupts


def test_interrupt_kills_the_workers_and_keeps_finished_cells(tmp_path):
    """Ctrl-C in the parent while a worker is busy: every worker is
    killed and reaped at once, and :class:`SweepInterrupted` carries
    the cells that finished, already journaled."""
    marker = tmp_path / "attempts"
    cells = [("gcc", s, 4) for s in ("base", "ER", _PRI)]

    def interrupt_third(benchmark, scheme, width, spec, traces):
        cell = (benchmark, scheme, width)
        _attempt(marker, cell)
        if cell == cells[2]:
            os.kill(os.getppid(), signal.SIGINT)
            time.sleep(60)
        return run_one(benchmark, scheme, width, spec, traces)

    path = str(tmp_path / "journal")
    start = time.monotonic()
    with pytest.raises(SweepInterrupted) as info:
        run_cells(cells, _SPEC, jobs=2, journal=path,
                  cell_fn=interrupt_third)
    assert time.monotonic() - start < 30
    finished = info.value.results
    assert cells[2] not in finished
    journal = SweepJournal(path)
    assert all(journal.get(cell_key(*c, _SPEC)) == finished[c]
               for c in finished)
    _assert_reaped(_pids(marker))


def test_resumed_journal_simulates_nothing(plain, tmp_path):
    path = str(tmp_path / "journal")
    _identical(run_cells(_CELLS, _SPEC, jobs=2, journal=path), plain)
    marker = tmp_path / "attempts"

    def counted(benchmark, scheme, width, spec, traces):
        _attempt(marker, (benchmark, scheme, width))
        return run_one(benchmark, scheme, width, spec, traces)

    _identical(run_cells(_CELLS, _SPEC, jobs=2, journal=path,
                         cell_fn=counted), plain)
    assert not marker.exists(), "journaled cells were re-simulated"
