"""The one checked-line log behind the sweep journal and the serve job
journal: pinned bytes, torn-tail salvage, and a loader that agrees with
fsck on what a well-formed record is."""

import hashlib

import pytest

from repro.core.stats import SimStats
from repro.experiments.journal import SweepJournal
from repro.serve.jobs import JobJournal
from repro.store import MalformedRecord, fsck_tree
from repro.store.integrity import checked_line

_TORN = b'3f2a {"torn'  # power loss mid-append


def _sha256(path):
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _lease(state, key="cellA", **extra):
    return {"key": key, "state": state, "worker": "w0", "ts": 1.0, **extra}


def _record_lease(journal, event, durable=True):
    """Append a lease line as the retired sweep farm wrote them: no
    writer API is left, but old journals that hold them must load."""
    journal._log.append({"lease": event}, durable=durable)


def _job(jid, state, **extra):
    return {"id": jid, "key": f"key-{jid}", "state": state, "ts": 2.0,
            **extra}


# =========================================================== pinned bytes

#: sha256 of each journal after the fixed operation sequences below, as
#: written before the two journals shared one log implementation.
_SWEEP_SHA256 = (
    "44e7f7d121c770a748365d1ace5a63e2dc601171737ccbb1461dbc7126054507")
_JOBS_SHA256 = (
    "f7e9b227bb689f0b214a69549ab50151d473130cc773183c5860079fc3a5d5cc")

_SWEEP_STATS = {
    "cellA": SimStats(cycles=1000, committed=400),
    "cellB": SimStats(cycles=1100, committed=420),
    "cellC": SimStats(cycles=1200, committed=440),
}
_SWEEP_ERRORS = {"cellD": {"error_type": "ValueError", "message": "boom"}}
_SWEEP_LEASES = [
    _lease("leased"),
    _lease("heartbeat", cycle=100),
    _lease("completed"),
    _lease("leased", key="cellB", worker="w1"),
    _lease("released", key="cellB", worker="w1"),
]
_JOB_EVENTS = [
    _job("j1", "queued", spec={"benchmark": "gzip"}),
    _job("j1", "running"),
    _job("j1", "done", cost={"sim_wall_s": 0.5}),
    _job("j2", "queued"),
    _job("j3", "queued"),
    _job("j3", "running"),
    _job("j3", "failed", error={"error_type": "SimulationError",
                                "message": "injected"}),
    _job("j4", "queued"),
]


def _drive_sweep(path):
    journal = SweepJournal(path)  # a fresh create: no file yet
    _record_lease(journal, _SWEEP_LEASES[0])  # header + first record
    _record_lease(journal, _SWEEP_LEASES[1], durable=False)
    journal.record_ok("cellA", _SWEEP_STATS["cellA"])
    _record_lease(journal, _SWEEP_LEASES[2])
    journal.record_error("cellB", {"error_type": "RuntimeError",
                                   "message": "first try"})
    _record_lease(journal, _SWEEP_LEASES[3])
    _record_lease(journal, _SWEEP_LEASES[4], durable=False)
    journal.record_ok("cellB", _SWEEP_STATS["cellB"])  # supersedes the error
    reopened = SweepJournal(path)
    reopened.record_ok("cellC", _SWEEP_STATS["cellC"])
    reopened.record_error("cellD", _SWEEP_ERRORS["cellD"])


def _drive_jobs(path):
    journal = JobJournal(path)
    for event in _JOB_EVENTS[:-1]:
        journal.record(event, durable=event["state"] != "running")
    JobJournal(path).record(_JOB_EVENTS[-1])


def _assert_sweep_contents(journal):
    for key, stats in _SWEEP_STATS.items():
        assert journal.get(key).to_dict() == stats.to_dict()
    assert journal.errors() == _SWEEP_ERRORS
    assert len(journal) == 4 and journal.completed == 3
    with open(journal.path, encoding="utf-8") as handle:
        assert sum('{"lease":' in line for line in handle) == \
            len(_SWEEP_LEASES)


def test_sweep_journal_bytes_pinned(tmp_path):
    path = str(tmp_path / "journal.json")
    _drive_sweep(path)
    assert _sha256(path) == _SWEEP_SHA256
    _assert_sweep_contents(SweepJournal(path))


def test_job_journal_bytes_pinned(tmp_path):
    path = str(tmp_path / "jobs.json")
    _drive_jobs(path)
    assert _sha256(path) == _JOBS_SHA256
    assert JobJournal(path).events == _JOB_EVENTS


def test_sweep_journal_torn_tail_salvage(tmp_path):
    path = str(tmp_path / "journal.json")
    _drive_sweep(path)
    with open(path, "ab") as handle:
        handle.write(_TORN)
    salvaged = SweepJournal(path)
    assert salvaged.salvaged is not None
    _assert_sweep_contents(salvaged)
    again = SweepJournal(path)  # the salvage rewrote the file
    assert again.salvaged is None
    _assert_sweep_contents(again)


def test_job_journal_torn_tail_salvage(tmp_path):
    path = str(tmp_path / "jobs.json")
    _drive_jobs(path)
    with open(path, "ab") as handle:
        handle.write(_TORN)
    salvaged = JobJournal(path)
    assert salvaged.salvaged is not None
    assert salvaged.events == _JOB_EVENTS
    again = JobJournal(path)
    assert again.salvaged is None
    assert again.events == _JOB_EVENTS
    assert {jid: e["state"] for jid, e in again.latest().items()} == {
        "j1": "done", "j2": "queued", "j3": "failed", "j4": "queued"}


# ================================================ load and fsck agree


def _sweep_with_bad_lease(path):
    _record_lease(SweepJournal(path), _lease("leased"))
    return SweepJournal


def _jobs_with_bad_job(path):
    JobJournal(path).record(_job("j1", "queued"))
    return JobJournal


@pytest.mark.parametrize(("build", "bad_record"), [
    (_sweep_with_bad_lease, {"lease": _lease("zombie")}),
    (_jobs_with_bad_job, {"job": {"key": "k", "state": "queued", "ts": 2.0}}),
], ids=["sweep-unknown-lease-state", "jobs-record-without-id"])
def test_load_and_fsck_agree_on_a_digest_valid_bad_record(
        tmp_path, build, bad_record):
    path = str(tmp_path / "log.json")
    loader = build(path)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(checked_line(bad_record))  # its digest is valid
    with pytest.raises(MalformedRecord) as excinfo:
        loader(path)
    assert excinfo.value.line == 3
    (finding,) = fsck_tree(path).findings
    assert finding.status == "corrupt"
    assert finding.error_type == "MalformedRecord"
    assert finding.error == str(excinfo.value)
