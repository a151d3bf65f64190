"""Journals that hold lease lines, as the retired shared-directory
sweep farm wrote them: they still load, resume every cell, and pass
fsck, and a malformed lease line is still corrupt."""

import pytest

from repro.core.stats import SimStats
from repro.experiments import RunSpec, SweepJournal, cell_key, run_cells
from repro.experiments.journal import JOURNAL_FORMAT, _VERSION
from repro.store import MalformedRecord
from repro.store.fsck import fsck_tree
from repro.store.integrity import checked_line


def _event(key="k1", state="leased", worker="w0", **extra):
    return {"key": key, "state": state, "worker": worker, "ts": 1.0, **extra}


def _lease(**fields):
    return {"lease": _event(**fields)}


def _cell(key, stats):
    return {"key": key, "cell": {"status": "ok", "stats": stats.to_dict()}}


def _write(path, records):
    """A journal of ``records`` after the header, line by line."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(checked_line({"format": JOURNAL_FORMAT,
                                   "version": _VERSION}))
        for record in records:
            handle.write(checked_line(record))


def _stats(committed):
    stats = SimStats()
    stats.committed = committed
    return stats


def test_lease_records_roundtrip(tmp_path):
    """Lease lines load and are skipped; the cells around them are
    restored."""
    path = str(tmp_path / "journal.json")
    _write(path, [_lease(state="leased"), _cell("k1", _stats(42)),
                  _lease(state="heartbeat", cycle=500),
                  _lease(state="completed")])
    journal = SweepJournal(path)
    assert journal.get("k1").committed == 42
    assert len(journal) == 1


def test_lease_records_do_not_shadow_cells(tmp_path):
    path = str(tmp_path / "journal.json")
    _write(path, [_lease(), _cell("k1", _stats(42)),
                  _lease(state="completed")])
    journal = SweepJournal(path)
    journal.record_ok("k2", _stats(7))
    back = SweepJournal(path)
    assert back.get("k1").committed == 42
    assert back.get("k2").committed == 7
    assert len(back) == 2


def test_journal_with_lease_lines_resumes_every_cell(tmp_path):
    """A ``--jobs 2 --journal`` journal of the farm era: every cell is
    restored and none is simulated again."""
    spec = RunSpec(length=200, warmup=300, seed=1)
    cells = [("gzip", s, 4) for s in ("base", "ER")]
    fresh = run_cells(cells, spec)
    records = []
    for attempt, cell in enumerate(cells, 1):
        key = cell_key(*cell, spec)
        records += [_lease(key=key, state="leased", attempt=attempt),
                    _cell(key, fresh[cell]),
                    _lease(key=key, state="completed", attempt=attempt)]
    path = str(tmp_path / "journal.json")
    _write(path, records)

    def never(*args):
        raise AssertionError("a journaled cell was simulated")

    resumed = run_cells(cells, spec, jobs=2, journal=path, cell_fn=never)
    assert {c: s.to_dict() for c, s in resumed.items()} == \
        {c: s.to_dict() for c, s in fresh.items()}


def test_salvage_rewrite_preserves_lease_lines(tmp_path):
    path = str(tmp_path / "journal.json")
    _write(path, [_lease(), _cell("k1", _stats(1))])
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("deadbeef torn-tail")  # crash mid-append
    back = SweepJournal(path)
    assert back.salvaged is not None
    # The valid prefix, rewritten as it stood, still carries the lease
    # line and still loads.
    with open(path, encoding="utf-8") as handle:
        assert sum('{"lease":' in line for line in handle) == 1
    again = SweepJournal(path)
    assert again.salvaged is None and len(again) == 1


# ------------------------------------------------------------------ fsck


def test_fsck_accepts_journal_with_lease_lines(tmp_path):
    path = str(tmp_path / "journal.json")
    _write(path, [_lease(), _cell("k1", SimStats()),
                  _lease(state="completed")])
    report = fsck_tree(path)
    assert report.ok == 1
    assert not report.unrepaired


@pytest.mark.parametrize("lease", [
    {"key": "k", "state": "bogus", "worker": "w0", "ts": 1.0},
    {"state": "leased"},
], ids=["unknown-state", "missing-fields"])
def test_fsck_rejects_malformed_lease_record(tmp_path, lease):
    """A checksum-valid line whose lease payload is garbage: the digest
    passes, so only the record check catches it, in fsck and in the
    loader alike."""
    path = str(tmp_path / "journal.json")
    _write(path, [_lease(), {"lease": lease}])
    assert fsck_tree(path).unrepaired
    with pytest.raises(MalformedRecord):
        SweepJournal(path)
