"""Lease records in the sweep journal, fsck's validation of them, and
``python -m repro.farm status``'s read of them."""

import json

import pytest

from repro.core.stats import SimStats
from repro.experiments.journal import LEASE_STATES, SweepJournal
from repro.store.fsck import fsck_tree
from repro.store.integrity import checked_line


def _event(key="k1", state="leased", worker="w0", **extra):
    return {"key": key, "state": state, "worker": worker, "ts": 1.0, **extra}


def test_lease_records_roundtrip(tmp_path):
    path = str(tmp_path / "journal.json")
    journal = SweepJournal(path)
    journal.record_lease(_event(state="leased"))
    journal.record_lease(_event(state="heartbeat", cycle=500), durable=False)
    journal.record_lease(_event(state="completed"))
    back = SweepJournal(path)
    assert [e["state"] for e in back.lease_events] == [
        "leased", "heartbeat", "completed",
    ]
    assert back.lease_states()["k1"]["state"] == "completed"


def test_lease_records_do_not_shadow_cells(tmp_path):
    path = str(tmp_path / "journal.json")
    journal = SweepJournal(path)
    journal.record_lease(_event())
    stats = SimStats()
    stats.committed = 42
    journal.record_ok("k1", stats)
    journal.record_lease(_event(state="completed"))
    back = SweepJournal(path)
    assert back.get("k1").committed == 42
    assert len(back) == 1
    assert len(back.lease_events) == 2


def test_record_lease_validates_fields(tmp_path):
    journal = SweepJournal(str(tmp_path / "journal.json"))
    with pytest.raises(ValueError, match="lacks fields"):
        journal.record_lease({"key": "k", "state": "leased"})
    with pytest.raises(ValueError, match="unknown lease state"):
        journal.record_lease(_event(state="zombie"))


def test_lease_states_latest_wins(tmp_path):
    journal = SweepJournal(str(tmp_path / "journal.json"))
    for state in ("leased", "abandoned", "leased", "completed"):
        assert state in LEASE_STATES
        journal.record_lease(_event(state=state))
    journal.record_lease(_event(key="k2", state="released"))
    latest = journal.lease_states()
    assert latest["k1"]["state"] == "completed"
    assert latest["k2"]["state"] == "released"


def test_salvage_rewrite_preserves_lease_lines(tmp_path):
    path = str(tmp_path / "journal.json")
    journal = SweepJournal(path)
    journal.record_lease(_event())
    stats = SimStats()
    journal.record_ok("k1", stats)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("deadbeef torn-tail")  # crash mid-append
    back = SweepJournal(path)
    assert back.salvaged is not None
    assert len(back.lease_events) == 1
    # And the valid prefix, rewritten as it stood, still carries the
    # lease line.
    again = SweepJournal(path)
    assert len(again.lease_events) == 1


# ------------------------------------------------------------------ fsck


def test_fsck_accepts_journal_with_lease_lines(tmp_path):
    path = str(tmp_path / "journal.json")
    journal = SweepJournal(path)
    journal.record_lease(_event())
    journal.record_ok("k1", SimStats())
    journal.record_lease(_event(state="completed"))
    report = fsck_tree(path)
    assert report.ok == 1
    assert not report.unrepaired


def test_fsck_rejects_malformed_lease_record(tmp_path):
    path = str(tmp_path / "journal.json")
    journal = SweepJournal(path)
    journal.record_lease(_event())
    # Append a checksum-valid line whose lease payload is garbage: the
    # digest passes, so only semantic validation can catch it.
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(checked_line({"lease": {"key": "k", "state": "bogus"}}))
    report = fsck_tree(path)
    assert report.unrepaired


def test_fsck_rejects_lease_with_missing_fields(tmp_path):
    path = str(tmp_path / "journal.json")
    journal = SweepJournal(path)
    journal.record_lease(_event())
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(checked_line({"lease": {"state": "leased"}}))
    report = fsck_tree(path)
    assert report.unrepaired


# ----------------------------------------------------------- farm status


def _status(root, capsys):
    """``python -m repro.farm status ROOT --json``, checked read-only."""
    from repro.farm.__main__ import main

    path = root / "journal.json"
    before = path.read_bytes()
    assert main(["status", str(root), "--json"]) == 0
    assert path.read_bytes() == before
    return json.loads(capsys.readouterr().out)


def test_status_points_interior_damage_at_store_fsck(tmp_path, capsys):
    journal = SweepJournal(str(tmp_path / "journal.json"))
    for state in ("leased", "heartbeat", "completed"):
        journal.record_lease(_event(state=state))
    lines = (tmp_path / "journal.json").read_bytes().split(b"\n")
    lines[2] = lines[2].replace(b"heartbeat", b"heartbeaT")
    (tmp_path / "journal.json").write_bytes(b"\n".join(lines))
    status = _status(tmp_path, capsys)
    note = status["journal_note"]
    assert "journal damaged at line 3" in note
    assert "`python -m repro.store fsck`" in note
    assert status["lease_events"] == 1


def test_status_stops_at_a_lease_record_fsck_calls_corrupt(tmp_path, capsys):
    path = str(tmp_path / "journal.json")
    journal = SweepJournal(path)
    journal.record_lease(_event())
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(checked_line({"lease": _event(state="bogus")}))
        handle.write(checked_line({"lease": _event(state="completed")}))
    assert fsck_tree(path).unrepaired
    status = _status(tmp_path, capsys)
    note = status["journal_note"]
    assert "line 3" in note and "unknown lease state 'bogus'" in note
    assert "`python -m repro.store fsck`" in note
    assert status["lease_events"] == 1
    assert [e["state"] for e in status["recent"]] == ["leased"]
