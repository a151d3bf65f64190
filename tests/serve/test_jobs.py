"""Job specs, keys, validation, and the durable job journal."""

import os

import pytest

from repro.experiments.journal import cell_key
from repro.experiments.journal import cid_of
from repro.serve.jobs import (
    JobError,
    JobJournal,
    JobSpec,
    parse_job,
)
from repro.store.errors import DigestMismatch, MalformedRecord


# ------------------------------------------------------------------ specs

def test_key_matches_sweep_cell_key():
    spec = JobSpec(benchmark="gzip", scheme="base", width=4)
    assert spec.key() == cell_key("gzip", "base", 4, spec.run_spec(),
                                 config=spec.config())


def test_job_id_is_hash_of_key():
    spec = JobSpec(benchmark="gzip")
    assert spec.job_id() == cid_of(spec.key())


def test_identical_specs_share_id_distinct_do_not():
    a = JobSpec(benchmark="gzip", scheme="base")
    b = JobSpec(benchmark="gzip", scheme="base")
    c = JobSpec(benchmark="gzip", scheme="base", seed=2)
    assert a.job_id() == b.job_id()
    assert a.job_id() != c.job_id()


def test_regs_override_changes_key():
    base = JobSpec(benchmark="gzip")
    swept = JobSpec(benchmark="gzip", regs=56)
    assert base.key() != swept.key()
    cfg = swept.config()
    assert cfg.int_phys_regs == 56 and cfg.fp_phys_regs == 56


def test_to_dict_round_trips_through_parse():
    spec = JobSpec(benchmark="gzip", scheme="ER", width=8, length=3000,
                   warmup=5000, seed=3, max_cycles=100000, regs=72)
    assert parse_job(spec.to_dict()) == spec


# ------------------------------------------------------------- validation

@pytest.mark.parametrize("body", [
    "not-a-dict",
    {},
    {"benchmark": "nope"},
    {"benchmark": "gzip", "scheme": "nope"},
    {"benchmark": "gzip", "width": 6},
    {"benchmark": "gzip", "length": 0},
    {"benchmark": "gzip", "length": "6000"},
    {"benchmark": "gzip", "seed": True},
    {"benchmark": "gzip", "regs": 0},
    {"benchmark": "gzip", "surprise": 1},
    {"benchmark": "gzip", "regs": 8},
])
def test_parse_job_rejects(body):
    with pytest.raises(JobError):
        parse_job(body)


def test_parse_job_defaults():
    spec = parse_job({"benchmark": "gzip"})
    assert spec == JobSpec(benchmark="gzip")


# ---------------------------------------------------------------- journal

def _event(jid, state, key="k", **extra):
    return {"id": jid, "key": key, "state": state, "ts": 1.0, **extra}


def test_journal_records_and_replays(tmp_path):
    path = str(tmp_path / "jobs.json")
    journal = JobJournal(path)
    journal.record(_event("j1", "queued", spec={"benchmark": "gzip"}))
    journal.record(_event("j1", "running"), durable=False)
    journal.record(_event("j1", "done"))
    journal.record(_event("j2", "queued"))
    replayed = JobJournal(path)
    latest = replayed.latest()
    assert latest["j1"]["state"] == "done"
    assert latest["j2"]["state"] == "queued"
    assert replayed.events[0]["spec"] == {"benchmark": "gzip"}


def test_journal_rejects_bad_records(tmp_path):
    journal = JobJournal(str(tmp_path / "jobs.json"))
    with pytest.raises(ValueError):
        journal.record({"id": "j1", "state": "queued"})  # no key/ts
    with pytest.raises(ValueError):
        journal.record(_event("j1", "sideways"))


def test_journal_salvages_torn_tail(tmp_path):
    path = str(tmp_path / "jobs.json")
    journal = JobJournal(path)
    journal.record(_event("j1", "queued"))
    journal.record(_event("j2", "queued"))
    with open(path, "ab") as fh:
        fh.write(b'{"torn')  # power loss mid-append
    replayed = JobJournal(path)
    assert replayed.salvaged is not None
    assert set(replayed.latest()) == {"j1", "j2"}
    # The salvage rewrote the valid prefix as it stood, without the torn
    # tail: a third load is clean.
    clean = JobJournal(path)
    assert clean.salvaged is None


def test_journal_interior_damage_is_typed_error(tmp_path):
    path = str(tmp_path / "jobs.json")
    journal = JobJournal(path)
    for i in range(4):
        journal.record(_event(f"j{i}", "queued"))
    with open(path, "r+b") as fh:
        fh.seek(os.path.getsize(path) // 2)
        fh.write(b"ZZ")
    with pytest.raises((DigestMismatch, MalformedRecord)):
        JobJournal(path)


def test_journal_fsck_recognized_and_salvaged(tmp_path):
    from repro.store.fsck import fsck_tree

    path = str(tmp_path / "jobs.json")
    journal = JobJournal(path)
    for i in range(4):
        journal.record(_event(f"j{i}", "queued"))
    report = fsck_tree(str(tmp_path))
    assert [f.kind for f in report.findings] == ["serve-job-journal"]
    assert report.findings[0].status == "ok"
    # Interior damage: fsck classifies, repairs to the valid prefix.
    with open(path, "r+b") as fh:
        fh.seek(os.path.getsize(path) - 20)
        fh.write(b"ZZ")
    repair = fsck_tree(str(tmp_path), repair=True)
    assert not repair.unrepaired
    assert JobJournal(path).latest()  # loadable again
