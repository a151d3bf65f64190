"""Chaos suite: the farm's contract under injected distributed failure.

Every test drives a real sweep through the broker/worker farm with
deterministic faults from :mod:`repro.farm.inject` and asserts the
farm's three invariants:

* **exactly-once completion** — every cell is folded into the results
  exactly once, duplicates verified bit-identical;
* **no lost cells** — every cell completes, whatever was killed,
  stalled, orphaned, or evicted;
* **bit-identical reruns** — a reclaimed cell reruns from cycle 0 on
  another attempt, and the final matrix equals a fault-free run
  bit-for-bit.
"""

import json
import os
import subprocess
import sys
import time

import pytest

from repro.core.machine import Machine
from repro.core.stats import SimStats
from repro.experiments import RunSpec, SweepJournal, run_cells, run_matrix, run_one
from repro.experiments.runner import FIGURE10_SCHEMES, CellError
from repro.farm import FarmSpec
from repro.farm import lease as fsl
from repro.farm.aggregate import Aggregator
from repro.farm.broker import CRASH_RERUNS
from repro.farm.lease import CellResult
from repro.farm.worker import _Heartbeat

_SPEC = RunSpec(length=300, warmup=600, seed=2)
_PRI = "PRI-refcount+ckptcount"
_BENCH = ("gcc", "mesa")


def _farm(tmp_path, **kw):
    defaults = dict(workers=2, lease_ttl=1.0, heartbeat_interval=0.1,
                    poll_interval=0.05, grace=4.0)
    defaults.update(kw)
    return FarmSpec(root=str(tmp_path / "farm"), **defaults)


def _assert_identical(farmed, plain):
    for benchmark in plain:
        for scheme in plain[benchmark]:
            got = farmed[benchmark][scheme]
            want = plain[benchmark][scheme]
            assert isinstance(got, SimStats), (benchmark, scheme, got)
            assert got.to_dict() == want.to_dict(), (benchmark, scheme)


def _recorded(benchmarks, schemes, **options):
    """``run_cells`` over the 4-wide benchmarks x schemes rectangle, as a
    [benchmark][scheme] matrix that keeps each failed cell's
    :class:`CellError`."""
    results = run_cells([(b, s, 4) for b in benchmarks for s in schemes],
                        _SPEC, **options)
    return {b: {s: results[b, s, 4] for s in schemes} for b in benchmarks}


@pytest.fixture(scope="module")
def plain_small():
    """Fault-free reference for the 2x2 matrix used by most tests."""
    return run_matrix(_BENCH, ("base", _PRI), 4, _SPEC)


# ============================================================ fault-free


def test_farm_matches_plain_run(tmp_path, plain_small):
    farm = _farm(tmp_path)
    result = run_matrix(_BENCH, ("base", _PRI), 4, _SPEC, farm=farm)
    _assert_identical(result, plain_small)
    report = farm.report
    assert report.completed == 4
    assert report.failed == 0
    assert report.divergent == 0


def test_farm_journals_lease_audit_trail(tmp_path, plain_small):
    farm = _farm(tmp_path)
    run_matrix(_BENCH, ("base", _PRI), 4, _SPEC, farm=farm)
    journal = SweepJournal(os.path.join(farm.root, "journal.json"))
    states = [e["state"] for e in journal.lease_events]
    assert states.count("completed") == 4
    assert "leased" in states
    # Every completion follows the grant of the attempt it completes,
    # also for a cell claimed and finished between two broker polls.
    granted = set()
    for event in journal.lease_events:
        if event["state"] == "leased":
            granted.add((event["key"], event["attempt"]))
        elif event["state"] == "completed":
            assert (event["key"], event["attempt"]) in granted, event
    # Exactly one completion per cell key: the exactly-once contract,
    # as recorded durably in the journal.
    completed = [e["key"] for e in journal.lease_events
                 if e["state"] == "completed"]
    assert len(completed) == len(set(completed)) == 4
    # And the journal restores the cells on the next run: nothing left.
    again = run_matrix(_BENCH, ("base", _PRI), 4, _SPEC,
                       journal=os.path.join(farm.root, "journal.json"))
    _assert_identical(again, plain_small)


def test_two_width_sweep_is_one_farm(tmp_path, capsys):
    """Both widths go through one farm: no width's broker prunes the
    other's cells, so every cell stays published with its result."""
    from repro.farm.__main__ import main

    cells = [(b, s, w) for w in (4, 8) for b in _BENCH for s in ("base", _PRI)]
    farm = _farm(tmp_path)
    results = run_cells(cells, _SPEC, farm=farm)
    assert all(isinstance(results[c], SimStats) for c in cells)
    assert farm.report.completed == farm.report.cells == len(cells)
    assert main(["status", farm.root, "--json"]) == 0
    status = json.loads(capsys.readouterr().out)
    assert status["cells"] == status["with_result"] == len(cells)


# ============================================ the plain worker path


def test_plain_worker_cells_carry_no_hook_and_skip_quiet_cycles(tmp_path,
                                                                monkeypatch):
    """With no chaos plan, a ``--jobs 2`` worker runs each cell exactly
    as a serial run does: its machine has no cycle hook, so the cycle
    loop fast-forwards quiet cycles."""
    log = tmp_path / "machines.log"
    run, quiet_until = Machine.run, Machine._quiet_until

    def counted_quiet_until(self):
        self.quiet_calls = getattr(self, "quiet_calls", 0) + 1
        return quiet_until(self)

    def logged_run(self, *args, **kwargs):
        stats = run(self, *args, **kwargs)
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {len(self._cycle_hooks)} "
                     f"{getattr(self, 'quiet_calls', 0)}\n")
        return stats

    # Forked workers inherit the patched class.
    monkeypatch.setattr(Machine, "_quiet_until", counted_quiet_until)
    monkeypatch.setattr(Machine, "run", logged_run)
    cells = [(b, s, 4) for b in _BENCH for s in ("base", _PRI)]
    results = run_cells(cells, _SPEC, jobs=2)
    assert all(isinstance(results[c], SimStats) for c in cells)
    runs = [tuple(map(int, line.split()))
            for line in log.read_text().splitlines()]
    assert len(runs) == len(cells)
    assert all(pid != os.getpid() for pid, _, _ in runs)
    assert all(hooks == 0 for _, hooks, _ in runs)
    assert all(quiet > 0 for _, _, quiet in runs)


def test_heartbeat_runs_while_a_slow_cell_simulates(tmp_path):
    """The heartbeat is a timer thread, not a cycle hook: a cell that
    takes three lease TTLs keeps its lease and completes on attempt 1."""
    def slow(benchmark, scheme, width, spec, traces=None):
        time.sleep(3 * farm.lease_ttl)
        return run_one(benchmark, scheme, width, spec, traces)

    farm = _farm(tmp_path, workers=1)
    result = run_matrix(("gcc",), ("base",), 4, _SPEC, farm=farm,
                        cell_fn=slow)
    assert isinstance(result["gcc"]["base"], SimStats)
    assert farm.report.reclaims == 0
    journal = SweepJournal(os.path.join(farm.root, "journal.json"))
    assert [e["attempt"] for e in journal.lease_events
            if e["state"] == "completed"] == [1]


def test_heartbeat_carries_progress_and_stops_at_release(tmp_path):
    """Heartbeats carry the machine's cycle and commit count (what
    ``farm status`` shows); once a lease is released, no heartbeat
    recreates its file.  More heartbeat threads than cores, at a short
    switch interval, so a heartbeat racing a release would show."""
    from types import SimpleNamespace

    from repro.farm.lease import CellSpec, cid_of

    farm = _farm(tmp_path, heartbeat_interval=0.001)
    paths = farm.paths.ensure()
    beats = []
    for index in range(8):
        cell = CellSpec(cid=cid_of(f"k{index}"), key=f"k{index}",
                        benchmark="gcc", scheme="base", width=4, spec={})
        fsl.write_cell(paths, cell, durable=False)
        lease = fsl.claim(paths, cell, "w0", farm.lease_ttl, durable=False)
        beat = _Heartbeat(farm, lease)
        beat.machine = SimpleNamespace(
            now=100 + index, stats=SimpleNamespace(committed=index))
        beats.append(beat)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        deadline = time.monotonic() + 30
        for index, beat in enumerate(beats):
            path = paths.lease(beat.lease.cid)
            while fsl.read_lease(path).cycle != 100 + index:
                assert time.monotonic() < deadline, "no progress heartbeat"
                time.sleep(0.001)
            assert fsl.read_lease(path).committed == index
        for beat in beats:
            beat.release()
            assert not beat._thread.is_alive()
        time.sleep(0.05)
    finally:
        sys.setswitchinterval(interval)
    assert fsl.list_leases(paths) == []


# ========================================================= kill, evict


def test_sigkill_mid_cell_reruns_and_folds_identically(tmp_path, plain_small):
    """SIGKILL a worker mid-cell: the broker reclaims the lease, the
    cell reruns from cycle 0 on a later attempt, and the final stats
    are bit-identical to an uninterrupted run."""
    farm = _farm(tmp_path, inject=("kill:worker=0:cell=0:cycles=400",))
    result = run_matrix(_BENCH, ("base", _PRI), 4, _SPEC, farm=farm)
    _assert_identical(result, plain_small)
    report = farm.report
    assert report.reclaims >= 1          # the SIGKILLed lease was reclaimed
    assert report.respawns >= 1          # the dead worker was replaced
    assert report.divergent == 0
    journal = SweepJournal(os.path.join(farm.root, "journal.json"))
    states = [e["state"] for e in journal.lease_events]
    assert "abandoned" in states
    # The reclaimed cell completed on a later attempt.
    assert any(e["state"] == "completed" and e["attempt"] > 1
               for e in journal.lease_events)


def test_eviction_releases_within_grace_and_reruns(tmp_path, plain_small):
    """SIGTERM (spot eviction) mid-cell: the worker drops the cell and
    marks its lease released; the cell reruns elsewhere and folds
    bit-identically.  A release spends none of the cell's crash reruns."""
    farm = _farm(tmp_path, inject=("evict:worker=1:cell=0:cycles=300",))
    result = run_matrix(_BENCH, ("base", _PRI), 4, _SPEC, farm=farm)
    _assert_identical(result, plain_small)
    report = farm.report
    assert report.evictions >= 1
    assert report.failed == 0
    journal = SweepJournal(os.path.join(farm.root, "journal.json"))
    released = {e["key"] for e in journal.lease_events
                if e["state"] == "released"}
    assert released
    assert any(e["state"] == "completed" and e["key"] in released
               and e["attempt"] > 1 for e in journal.lease_events)


def test_stalled_heartbeat_is_reclaimed(tmp_path, plain_small):
    """Heartbeats stop but the worker keeps (slowly) simulating: the
    lease must expire and the cell be reclaimed; if the zombie finishes
    too, its duplicate must verify bit-identical, never diverge."""
    farm = _farm(tmp_path, inject=("stall:worker=0:cell=0:cycles=200",))
    result = run_matrix(_BENCH, ("base", _PRI), 4, _SPEC, farm=farm)
    _assert_identical(result, plain_small)
    report = farm.report
    assert report.reclaims >= 1
    assert report.divergent == 0


def test_orphaned_worker_is_reclaimed_and_respawned(tmp_path, plain_small):
    farm = _farm(tmp_path, inject=("orphan:worker=1:cell=0:cycles=300",))
    result = run_matrix(_BENCH, ("base", _PRI), 4, _SPEC, farm=farm)
    _assert_identical(result, plain_small)
    assert farm.report.reclaims >= 1
    assert farm.report.respawns >= 1


def test_double_lease_completes_exactly_once(tmp_path, plain_small):
    farm = _farm(tmp_path, inject=("double-lease:worker=0:cell=0:cycles=200",))
    result = run_matrix(_BENCH, ("base", _PRI), 4, _SPEC, farm=farm)
    _assert_identical(result, plain_small)
    report = farm.report
    assert report.completed == 4
    assert report.divergent == 0
    journal = SweepJournal(os.path.join(farm.root, "journal.json"))
    completed = [e["key"] for e in journal.lease_events
                 if e["state"] == "completed"]
    assert len(completed) == len(set(completed)) == 4


# ==================================== figure-10-shaped acceptance sweep


def test_figure10_shaped_sweep_under_continuous_chaos(tmp_path):
    """The PR's acceptance criterion: a figure-10-shaped sweep (every
    Figure 10 scheme plus base, two benchmarks) driven through the farm
    with continuous fault injection — worker SIGKILLs, one simulated
    spot eviction, one stalled heartbeat, one double-lease — completes
    with every cell's SimStats identical to a fault-free run_matrix
    run."""
    schemes = ("base",) + FIGURE10_SCHEMES
    plain = run_matrix(_BENCH, schemes, 4, _SPEC)
    farm = _farm(
        tmp_path,
        inject=(
            "kill:worker=0:cell=0:cycles=400",         # hard crash
            "evict:worker=1:cell=1:cycles=300",        # spot eviction
            "stall:worker=2:cell=0:cycles=200",        # w0's replacement
            "double-lease:worker=3:cell=0:cycles=200", # w1's replacement
            "kill:worker=4:cell=1:cycles=500",         # keep the pressure on
        ),
    )
    result = run_matrix(_BENCH, schemes, 4, _SPEC, farm=farm)
    _assert_identical(result, plain)
    report = farm.report
    assert report.cells == len(_BENCH) * len(schemes)
    assert report.completed == report.cells      # exactly-once, no loss
    assert report.failed == 0
    assert report.divergent == 0
    assert report.reclaims + report.evictions >= 2


# =========================================================== error paths


def _deterministic_boom(benchmark, scheme, width, spec, traces=None):
    if scheme == _PRI:
        raise ValueError(f"injected deterministic failure in {benchmark}")
    return run_one(benchmark, scheme, width, spec, traces)


def test_deterministic_error_is_not_retried(tmp_path):
    farm = _farm(tmp_path)
    result = _recorded(_BENCH, ("base", _PRI), farm=farm,
                       cell_fn=_deterministic_boom)
    for benchmark in _BENCH:
        assert isinstance(result[benchmark]["base"], SimStats)
        err = result[benchmark][_PRI]
        assert isinstance(err, CellError)
        assert err.kind == "error"
        assert err.error_type == "ValueError"
        assert err.attempts == 1            # deterministic: no retry
    assert farm.report.failed == 2


def _crash_pri(benchmark, scheme, width, spec, traces=None):
    if scheme == _PRI:
        os._exit(9)  # simulated segfault: lease left behind, no result
    return run_one(benchmark, scheme, width, spec, traces)


def test_retry_budget_exhaustion_is_terminal(tmp_path):
    farm = _farm(tmp_path, workers=1)
    result = _recorded(("gcc",), ("base", _PRI), farm=farm,
                       cell_fn=_crash_pri)
    assert isinstance(result["gcc"]["base"], SimStats)
    err = result["gcc"][_PRI]
    assert isinstance(err, CellError)
    assert err.kind == "crash"
    assert err.error_type == "LeaseExpired"
    assert err.attempts == CRASH_RERUNS + 1
    assert farm.report.reclaims == CRASH_RERUNS + 1
    journal = SweepJournal(os.path.join(farm.root, "journal.json"))
    assert _PRI in str(journal.errors())


def test_dead_worker_lease_is_reclaimed_without_waiting_for_ttl(tmp_path):
    """A local worker that dies mid-cell gives its lease back as soon as
    the broker reaps it, classified as a crash with the exit code —
    not as an expiry one full lease TTL later."""
    farm = FarmSpec(root=str(tmp_path / "farm"), workers=2,
                    poll_interval=0.05)
    assert farm.lease_ttl == 30.0
    start = time.monotonic()
    result = _recorded(("gcc",), ("base", _PRI), farm=farm,
                       cell_fn=_crash_pri)
    assert time.monotonic() - start < 10
    assert isinstance(result["gcc"]["base"], SimStats)
    err = result["gcc"][_PRI]
    assert isinstance(err, CellError)
    assert err.kind == "crash"
    assert "worker process died with exit code 9" in err.message
    assert 0.0 < err.elapsed < farm.lease_ttl
    journal = SweepJournal(os.path.join(farm.root, "journal.json"))
    assert any(e["state"] == "abandoned" and e.get("reason") == "crash"
               for e in journal.lease_events)


# ===================================================== aggregator units


def _result(worker="w0", attempt=1, status="ok", stats=None, **kw):
    return CellResult(cid="c1", key="k1", worker=worker, attempt=attempt,
                      status=status,
                      stats=stats if stats is not None else {"committed": 7},
                      **kw)


def test_aggregator_folds_exactly_once_and_verifies_duplicates():
    agg = Aggregator()
    assert agg.fold(_result()) == "folded"
    assert agg.report.completed == 1
    # A zombie's bit-identical re-completion: dropped, counted.
    assert agg.fold(_result(worker="w1", attempt=2)) == "duplicate"
    assert agg.report.duplicates == 1
    assert agg.report.completed == 1
    # A differing duplicate is a real finding.
    assert agg.fold(_result(worker="w2", stats={"committed": 8})) \
        == "divergent"
    assert agg.report.divergent == 1
    assert agg.report.divergent_keys == ["k1"]


# ======================================= fence-stale lease (satellite 2)


def test_fence_stale_lease_is_scrubbed_not_reclaimed(tmp_path, plain_small):
    """A lease left behind by a pre-reclaim holder — its attempt is
    below the published spec's (the fence) — must be scrubbed on the
    broker's first scan, without waiting for TTL expiry and without
    counting as a reclaim.  Before the fence-stale branch this lease
    blocked its cell for a full lease_ttl."""
    import dataclasses as dc

    from repro.experiments.journal import cell_key
    from repro.farm.lease import CellSpec, cid_of, claim, write_cell

    farm = _farm(tmp_path, lease_ttl=30.0)  # TTL-expiry path cannot fire
    farm.paths.ensure()
    key = cell_key("gcc", "base", 4, _SPEC)
    stale = CellSpec(
        cid=cid_of(key), key=key, benchmark="gcc", scheme="base", width=4,
        spec={"length": _SPEC.length, "warmup": _SPEC.warmup,
              "seed": _SPEC.seed},
    )
    bumped = dc.replace(stale)
    bumped.attempt = 2
    write_cell(farm.paths, bumped)         # reclaim already fenced it...
    assert claim(farm.paths, stale, "ghost", ttl=30.0)  # ...ghost lingers

    result = run_matrix(_BENCH, ("base", _PRI), 4, _SPEC, farm=farm)
    _assert_identical(result, plain_small)
    report = farm.report
    assert report.completed == 4
    assert report.reclaims == 0            # scrubbed, never "reclaimed"
    assert report.divergent == 0
    assert not os.path.exists(farm.paths.lease(stale.cid))


# ================================================= broker crash + resume


def test_broker_crash_resume_burns_no_retry_budget(tmp_path):
    """SIGKILL the whole broker mid-sweep (power loss / CI teardown):
    the next run must hand the stale leases back voluntarily and
    complete every cell.  Preemption is infrastructure failure, not
    cell failure, so it never spends a crash rerun."""
    crash_spec = RunSpec(length=1200, warmup=2400, seed=2)
    farm_root = str(tmp_path / "farm")
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    driver = (
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "from repro.experiments import RunSpec, run_matrix\n"
        "from repro.farm import FarmSpec\n"
        f"farm = FarmSpec(root={farm_root!r}, workers=2, lease_ttl=1.0,\n"
        "                heartbeat_interval=0.1, poll_interval=0.05,\n"
        "                grace=3.0)\n"
        f"run_matrix(('gcc', 'mesa'), ('base', {_PRI!r}), 4,\n"
        "           RunSpec(length=1200, warmup=2400, seed=2), farm=farm)\n"
    )
    proc = subprocess.Popen([sys.executable, "-c", driver])
    time.sleep(2.0)
    proc.kill()
    proc.wait()
    plain = run_matrix(_BENCH, ("base", _PRI), 4, crash_spec)
    farm = _farm(tmp_path)  # same root: resumes the crashed sweep
    result = run_matrix(_BENCH, ("base", _PRI), 4, crash_spec, farm=farm)
    _assert_identical(result, plain)
    if farm.report is not None:  # None if the child finished pre-kill
        assert farm.report.failed == 0
        assert farm.report.divergent == 0


# ======================================================= attached worker


def test_externally_attached_worker_completes_cells(tmp_path, plain_small):
    """workers=0: the broker publishes and folds, but every simulation
    is done by a worker attached via ``python -m repro.farm worker`` —
    the cross-shell/cross-host mode."""
    farm = _farm(tmp_path, workers=0)
    farm.paths.ensure()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "..", "src")]
        + env.get("PYTHONPATH", "").split(os.pathsep)
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.farm", "worker", farm.root,
         "--name", "attached", "--lease-ttl", "2", "--heartbeat", "0.1",
         "--poll", "0.05"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        result = run_matrix(_BENCH, ("base", _PRI), 4, _SPEC, farm=farm)
        _assert_identical(result, plain_small)
        assert proc.wait(timeout=30) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    journal = SweepJournal(os.path.join(farm.root, "journal.json"))
    workers = {e["worker"] for e in journal.lease_events
               if e["state"] == "completed"}
    assert workers == {"attached"}


# ============================================================== farm CLI


def test_farm_status_cli_is_read_only(tmp_path, capsys):
    from repro.farm.__main__ import main

    farm = _farm(tmp_path)
    run_matrix(("gcc",), ("base",), 4, _SPEC, farm=farm)
    journal_path = os.path.join(farm.root, "journal.json")
    before = (os.path.getmtime(journal_path), os.path.getsize(journal_path))
    assert main(["status", farm.root]) == 0
    out = capsys.readouterr().out
    assert "1/1 cells have results" in out
    time.sleep(0.02)
    assert main(["status", farm.root, "--json"]) == 0
    status = json.loads(capsys.readouterr().out)
    assert status["journal_note"] is None and status["lease_events"] > 0
    assert len(status["recent"]) == min(8, status["lease_events"])
    assert main(["status", farm.root, "--json", "--tail", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["recent"] == []
    after = (os.path.getmtime(journal_path), os.path.getsize(journal_path))
    assert before == after  # status never writes


def test_farm_status_salvages_torn_journal_tail(tmp_path, capsys):
    """A broker crash mid-append leaves a torn final journal line.
    ``farm status`` must salvage the valid prefix, say so explicitly,
    and still never write — not raise, not silently under-report."""
    from repro.farm.__main__ import main

    farm = _farm(tmp_path)
    run_matrix(("gcc",), ("base",), 4, _SPEC, farm=farm)
    journal_path = os.path.join(farm.root, "journal.json")
    with open(journal_path, "rb") as fh:
        data = fh.read()
    with open(journal_path, "wb") as fh:
        fh.write(data[:-9])  # crash mid-append: the tail is torn
    before = (os.path.getmtime(journal_path), os.path.getsize(journal_path))

    assert main(["status", farm.root]) == 0
    out = capsys.readouterr().out
    assert "torn journal tail salvaged" in out
    assert main(["status", farm.root, "--json"]) == 0
    parsed = __import__("json").loads(capsys.readouterr().out)
    assert "torn journal tail salvaged" in parsed["journal_note"]
    after = (os.path.getmtime(journal_path), os.path.getsize(journal_path))
    assert before == after  # salvage is read-only: the evidence stays


def test_farm_status_reports_interior_journal_damage(tmp_path, capsys):
    """Interior corruption (not a torn tail) truncates the usable
    history; status must say where and point at fsck, exit 0."""
    from repro.farm.__main__ import main

    farm = _farm(tmp_path)
    run_matrix(("gcc",), ("base",), 4, _SPEC, farm=farm)
    journal_path = os.path.join(farm.root, "journal.json")
    with open(journal_path, "rb") as fh:
        lines = fh.read().split(b"\n")
    assert len(lines) > 3
    lines[1] = lines[1][:-1] + (b"X" if lines[1][-1:] != b"X" else b"Y")
    with open(journal_path, "wb") as fh:
        fh.write(b"\n".join(lines))

    assert main(["status", farm.root]) == 0
    out = capsys.readouterr().out
    assert "journal damaged at line 2" in out
    assert "fsck" in out


@pytest.mark.parametrize("argv", [
    ["worker", "ROOT", "--lease-ttl", "0"],
    ["worker", "ROOT", "--heartbeat", "0"],
    ["worker", "ROOT", "--heartbeat", "nan"],
    ["worker", "ROOT", "--poll", "-1"],
    ["status", "ROOT", "--tail", "-1"],
])
def test_farm_cli_rejects_out_of_range_numbers(argv, tmp_path, capsys):
    """A zero heartbeat would spin rewriting the lease file and a zero
    TTL would expire every lease at once: usage errors, before any
    worker starts."""
    from repro.farm.__main__ import main

    root = str(tmp_path / "farm")
    with pytest.raises(SystemExit) as excinfo:
        main([root if arg == "ROOT" else arg for arg in argv])
    assert excinfo.value.code == 2
    assert argv[2] in capsys.readouterr().err
    assert not os.path.exists(root)


def test_farm_faults_cli_lists_registry(capsys):
    from repro.farm.__main__ import main

    assert main(["faults"]) == 0
    out = capsys.readouterr().out
    for name in ("kill", "stall", "orphan", "evict", "double-lease"):
        assert name in out


def test_normalize_plans_accepts_strings_dicts_and_plans():
    from repro.farm.inject import InjectPlan, normalize_plans

    plan = InjectPlan(fault="evict", worker=1)
    plans = normalize_plans(["stall:worker=0:cycles=200",
                             {"fault": "kill", "cell_index": 2}, plan])
    assert plans == (InjectPlan("stall", after_cycles=200),
                     InjectPlan("kill", cell_index=2), plan)
    with pytest.raises(ValueError, match="unknown fault"):
        normalize_plans(["net-drop:worker=0"])
