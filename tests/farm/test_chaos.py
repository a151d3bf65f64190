"""Chaos suite: the farm's contract under injected distributed failure.

Every test drives a real sweep through the broker/worker farm with
deterministic faults from :mod:`repro.farm.inject` and asserts the
farm's three invariants:

* **exactly-once completion** — every cell is folded into the results
  exactly once, duplicates verified bit-identical;
* **zero lost work** — the final matrix equals a fault-free run
  bit-for-bit, whatever was killed, stalled, orphaned, or evicted;
* **resume, never restart** — a reclaimed cell with a checkpoint on
  disk continues mid-simulation (``cold_restarts == 0``).
"""

import os
import subprocess
import sys
import time

import pytest

from repro.core.stats import SimStats
from repro.experiments import RunSpec, SweepJournal, run_matrix, run_one
from repro.experiments.runner import FIGURE10_SCHEMES, CellError
from repro.farm import FarmSpec
from repro.farm.aggregate import Aggregator
from repro.farm.lease import CellResult

_SPEC = RunSpec(length=300, warmup=600, seed=2)
_PRI = "PRI-refcount+ckptcount"
_BENCH = ("gcc", "mesa")


def _farm(tmp_path, **kw):
    defaults = dict(workers=2, lease_ttl=1.0, heartbeat_interval=0.1,
                    poll_interval=0.05, checkpoint_every=120, grace=4.0)
    defaults.update(kw)
    return FarmSpec(root=str(tmp_path / "farm"), **defaults)


def _assert_identical(farmed, plain):
    for benchmark in plain:
        for scheme in plain[benchmark]:
            got = farmed[benchmark][scheme]
            want = plain[benchmark][scheme]
            assert isinstance(got, SimStats), (benchmark, scheme, got)
            assert got.to_dict() == want.to_dict(), (benchmark, scheme)


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
    assert report.cold_restarts == 0


def test_farm_journals_lease_audit_trail(tmp_path, plain_small):
    farm = _farm(tmp_path)
    run_matrix(_BENCH, ("base", _PRI), 4, _SPEC, farm=farm)
    journal = SweepJournal(os.path.join(farm.root, "journal.json"))
    states = [e["state"] for e in journal.lease_events]
    assert states.count("completed") == 4
    assert "leased" in states
    # Exactly one completion per cell key: the exactly-once contract,
    # as recorded durably in the journal.
    completed = [e["key"] for e in journal.lease_events
                 if e["state"] == "completed"]
    assert len(completed) == len(set(completed)) == 4
    # And the journal restores the cells on the next run: nothing left.
    again = run_matrix(_BENCH, ("base", _PRI), 4, _SPEC,
                       journal=os.path.join(farm.root, "journal.json"))
    _assert_identical(again, plain_small)


# ======================================================== kill (sat. 3)


def test_sigkill_between_checkpoints_resumes(tmp_path, plain_small):
    """SIGKILL a worker between checkpoints: the reclaimed cell must
    resume from the last snapshot — not cycle 0 — and the final stats
    must be bit-identical to an uninterrupted run."""
    farm = _farm(tmp_path, inject=("kill:worker=0:cell=0:cycles=400",))
    result = run_matrix(_BENCH, ("base", _PRI), 4, _SPEC,
                        farm=farm, retries=3)
    _assert_identical(result, plain_small)
    report = farm.report
    assert report.reclaims >= 1          # the SIGKILLed lease expired
    assert report.resumes >= 1           # ... and its cell resumed
    assert report.cold_restarts == 0     # ... from the checkpoint
    assert report.respawns >= 1          # the dead worker was replaced
    assert report.divergent == 0
    journal = SweepJournal(os.path.join(farm.root, "journal.json"))
    states = [e["state"] for e in journal.lease_events]
    assert "abandoned" in states
    # The reclaimed cell's completion records a mid-simulation start.
    resumed = [e for e in journal.lease_events
               if e["state"] == "completed" and e.get("start_cycle", 0) > 0]
    assert resumed


def test_eviction_checkpoints_within_grace(tmp_path, plain_small):
    """SIGTERM (spot eviction) must checkpoint-and-release promptly; the
    cell then resumes elsewhere from that exact cycle."""
    farm = _farm(tmp_path, inject=("evict:worker=1:cell=0:cycles=300",))
    result = run_matrix(_BENCH, ("base", _PRI), 4, _SPEC,
                        farm=farm, retries=3)
    _assert_identical(result, plain_small)
    report = farm.report
    assert report.evictions >= 1
    assert report.resumes >= 1
    assert report.cold_restarts == 0
    journal = SweepJournal(os.path.join(farm.root, "journal.json"))
    assert any(e["state"] == "released" for e in journal.lease_events)


def test_stalled_heartbeat_is_reclaimed(tmp_path, plain_small):
    """Heartbeats stop but the worker keeps (slowly) simulating: the
    lease must expire and the cell be reclaimed; if the zombie finishes
    too, its duplicate must verify bit-identical, never diverge."""
    farm = _farm(tmp_path, inject=("stall:worker=0:cell=0:cycles=200",))
    result = run_matrix(_BENCH, ("base", _PRI), 4, _SPEC,
                        farm=farm, retries=3)
    _assert_identical(result, plain_small)
    report = farm.report
    assert report.reclaims >= 1
    assert report.cold_restarts == 0
    assert report.divergent == 0


def test_orphaned_worker_is_reclaimed_and_respawned(tmp_path, plain_small):
    farm = _farm(tmp_path, inject=("orphan:worker=1:cell=0:cycles=300",))
    result = run_matrix(_BENCH, ("base", _PRI), 4, _SPEC,
                        farm=farm, retries=3)
    _assert_identical(result, plain_small)
    assert farm.report.reclaims >= 1
    assert farm.report.respawns >= 1
    assert farm.report.cold_restarts == 0


def test_double_lease_completes_exactly_once(tmp_path, plain_small):
    farm = _farm(tmp_path, inject=("double-lease:worker=0:cell=0:cycles=200",))
    result = run_matrix(_BENCH, ("base", _PRI), 4, _SPEC,
                        farm=farm, retries=3)
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
    run, and no cell ever re-simulates from cycle 0 when a checkpoint
    existed."""
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
    result = run_matrix(_BENCH, schemes, 4, _SPEC, farm=farm, retries=4)
    _assert_identical(result, plain)
    report = farm.report
    assert report.cells == len(_BENCH) * len(schemes)
    assert report.completed == report.cells      # exactly-once, no loss
    assert report.failed == 0
    assert report.divergent == 0
    assert report.cold_restarts == 0             # resume, never restart
    assert report.reclaims + report.evictions >= 2


# =========================================================== error paths


def _deterministic_boom(benchmark, scheme, width, spec, traces=None):
    if scheme == _PRI:
        raise ValueError(f"injected deterministic failure in {benchmark}")
    return run_one(benchmark, scheme, width, spec, traces)


def test_deterministic_error_is_not_retried(tmp_path):
    farm = _farm(tmp_path)
    result = run_matrix(_BENCH, ("base", _PRI), 4, _SPEC, farm=farm,
                        retries=3, on_error="record",
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
    result = run_matrix(("gcc",), ("base", _PRI), 4, _SPEC, farm=farm,
                        retries=1, on_error="record", cell_fn=_crash_pri)
    assert isinstance(result["gcc"]["base"], SimStats)
    err = result["gcc"][_PRI]
    assert isinstance(err, CellError)
    assert err.kind == "crash"
    assert err.error_type == "LeaseExpired"
    assert farm.report.reclaims >= 1
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
    result = run_matrix(("gcc",), ("base", _PRI), 4, _SPEC, farm=farm,
                        on_error="record", cell_fn=_crash_pri)
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


def test_timed_out_cell_frees_its_worker(tmp_path):
    """The worker running a timed-out cell is replaced at once, so the
    only worker does not sit on the abandoned cell until drain."""
    marker = tmp_path / "first"

    def hang_first(benchmark, scheme, width, spec, traces=None):
        if not marker.exists():
            marker.write_text(scheme)
            time.sleep(60)
        return run_one(benchmark, scheme, width, spec, traces)

    farm = FarmSpec(root=str(tmp_path / "farm"), workers=1,
                    poll_interval=0.05)
    start = time.monotonic()
    result = run_matrix(("gcc",), ("base", _PRI), 4, _SPEC, farm=farm,
                        on_error="record", cell_timeout=2.0,
                        cell_fn=hang_first)
    assert time.monotonic() - start < 30
    hung = marker.read_text()
    other = _PRI if hung == "base" else "base"
    assert result["gcc"][hung].kind == "timeout"
    assert isinstance(result["gcc"][other], SimStats)
    assert farm.report.respawns >= 1


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
    assert agg.fold(_result(worker="w1", attempt=2, start_cycle=240)) \
        == "duplicate"
    assert agg.report.duplicates == 1
    assert agg.report.completed == 1
    # A differing duplicate is a real finding.
    assert agg.fold(_result(worker="w2", stats={"committed": 8})) \
        == "divergent"
    assert agg.report.divergent == 1
    assert agg.report.divergent_keys == ["k1"]


def test_aggregator_flags_cold_restart():
    agg = Aggregator()
    agg.expect_resume.add(("c1", 2))
    agg.fold(_result(attempt=2, start_cycle=0))
    assert agg.report.cold_restarts == 1
    agg2 = Aggregator()
    agg2.expect_resume.add(("c1", 2))
    agg2.fold(_result(attempt=2, start_cycle=240))
    assert agg2.report.cold_restarts == 0
    assert agg2.report.resumes == 1


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

    result = run_matrix(_BENCH, ("base", _PRI), 4, _SPEC, farm=farm,
                        retries=3)
    _assert_identical(result, plain_small)
    report = farm.report
    assert report.completed == 4
    assert report.reclaims == 0            # scrubbed, never "reclaimed"
    assert report.divergent == 0
    assert not os.path.exists(farm.paths.lease(stale.cid))


# ================================================= broker crash + resume


def test_broker_crash_resume_burns_no_retry_budget(tmp_path):
    """SIGKILL the whole broker mid-sweep (power loss / CI teardown):
    the next run — with retries=0, the default — must hand the stale
    leases back voluntarily and complete every cell.  Preemption is
    infrastructure failure, not cell failure, so it never consumes
    retry budget."""
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
        "                checkpoint_every=150, grace=3.0)\n"
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
         "--poll", "0.05", "--checkpoint-every", "120"],
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


def test_farm_faults_cli_lists_registry(capsys):
    from repro.farm.__main__ import main

    assert main(["faults"]) == 0
    out = capsys.readouterr().out
    for name in ("kill", "stall", "orphan", "evict", "double-lease"):
        assert name in out
    for name in ("net-drop", "net-delay", "net-disconnect",
                 "net-duplicate", "net-stale"):
        assert name in out
