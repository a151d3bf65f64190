"""The corruption matrix (satellite of the artifact store): inject
every registered on-disk corruption into every artifact kind and assert

* the loader raises the documented *typed* ArtifactError (never a bare
  IndexError/KeyError/json.JSONDecodeError),
* append-style journals auto-salvage their valid prefix where torn,
* ``fsck`` detects 100% of the injected damage, and
* ``fsck --repair`` leaves a tree where everything still loads.
"""

import json
import os

import pytest

from repro.experiments.journal import SweepJournal
from repro.core.stats import SimStats
from repro.oracle.fuzz import FuzzSpec, load_reproducer, write_reproducer
from repro.serve.cache import CACHE_KIND, CACHE_SCHEMA, CacheEntry
from repro.store import (
    ArtifactError,
    DigestMismatch,
    MalformedRecord,
    TruncatedArtifact,
    atomic_write_bytes,
    corrupt,
    envelope_bytes,
    fsck_tree,
    read_json_artifact,
)

# ======================================================= fixture builders


def _build_result(root, name="result.json"):
    """A serve result-cache entry.  Its full statistics payload is most
    of the file, so the damage offsets land in the payload."""
    path = os.path.join(root, name)
    entry = CacheEntry(key="gzip|base|w4", stats=SimStats().to_dict(),
                       cost={}, created_unix=0.0)
    atomic_write_bytes(path, envelope_bytes(CACHE_KIND, CACHE_SCHEMA,
                                            entry.to_dict()))
    return path


def read_result(path):
    data, _meta = read_json_artifact(path, CACHE_KIND,
                                     expected_schema=CACHE_SCHEMA)
    return CacheEntry.from_dict(data)


def _build_reproducer(root):
    path = os.path.join(root, "repro.json")
    spec = FuzzSpec(
        seed=0, benchmark="gzip", length=600, warmup=1200, trace_seed=3,
        oracle_interval=64, audit_interval=256,
    )
    write_reproducer(spec, {"outcome": "clean", "pad": "x" * 400}, path)
    return path


def _build_journal(root):
    path = os.path.join(root, "sweep.json")
    journal = SweepJournal(path)
    for i in range(4):
        journal.record_ok(f"cell-{i}", SimStats())
    journal.record_error("cell-bad", {"error_type": "RuntimeError", "message": "x"})
    return path


_BUILDERS = {
    "result": _build_result,
    "reproducer": _build_reproducer,
    "journal": _build_journal,
}

_LOADERS = {
    "result": read_result,
    "reproducer": load_reproducer,
    "journal": SweepJournal,
}

# ============================================================ the matrix
#
# (artifact, corruption) -> what the loader must do:
#   an ArtifactError subclass  raise exactly that typed error
#   "salvage"                  journal loads; valid prefix kept; .salvaged set
#   "fresh"                    journal loads empty (zero-byte file)
#   "intact"                   artifact unharmed (damage hit a sibling)

MATRIX = {
    ("result", "truncate-half"): TruncatedArtifact,
    ("result", "truncate-tail"): TruncatedArtifact,
    ("result", "empty"): TruncatedArtifact,
    ("result", "bit-flip"): DigestMismatch,
    ("result", "zero-fill"): DigestMismatch,
    ("result", "torn-tail"): MalformedRecord,
    ("result", "tmp-leftover"): "intact",
    ("reproducer", "truncate-half"): TruncatedArtifact,
    ("reproducer", "truncate-tail"): TruncatedArtifact,
    ("reproducer", "empty"): TruncatedArtifact,
    ("reproducer", "bit-flip"): DigestMismatch,
    ("reproducer", "zero-fill"): DigestMismatch,
    ("reproducer", "torn-tail"): MalformedRecord,
    ("reproducer", "tmp-leftover"): "intact",
    ("journal", "truncate-half"): "salvage",
    ("journal", "truncate-tail"): "salvage",
    ("journal", "torn-tail"): "salvage",
    ("journal", "empty"): "fresh",
    ("journal", "bit-flip"): DigestMismatch,
    ("journal", "zero-fill"): DigestMismatch,
    ("journal", "tmp-leftover"): "intact",
}

_IDS = [f"{artifact}-{corruption}" for artifact, corruption in MATRIX]


@pytest.mark.parametrize(("artifact", "corruption"), list(MATRIX), ids=_IDS)
def test_loader_reaction(tmp_path, artifact, corruption):
    path = _BUILDERS[artifact](str(tmp_path))
    baseline_records = len(SweepJournal(path)) if artifact == "journal" else None
    corrupt(path, corruption)
    expect = MATRIX[(artifact, corruption)]
    loader = _LOADERS[artifact]
    if expect == "intact":
        loader(path)  # must not raise: only a .tmp sibling was dropped
    elif expect == "fresh":
        assert len(loader(path)) == 0
    elif expect == "salvage":
        journal = loader(path)
        assert journal.salvaged is not None
        assert len(journal) < baseline_records + 1  # header excluded from len
        # The salvage rewrote the file: a second open is clean.
        again = SweepJournal(path)
        assert again.salvaged is None
        assert len(again) == len(journal)
    else:
        with pytest.raises(expect) as excinfo:
            loader(path)
        assert isinstance(excinfo.value, ArtifactError)
        assert isinstance(excinfo.value, ValueError)  # legacy except-clauses


@pytest.mark.parametrize(("artifact", "corruption"), list(MATRIX), ids=_IDS)
def test_fsck_detects_every_injection(tmp_path, artifact, corruption):
    """Acceptance: ``python -m repro.store fsck`` detects 100% of the
    corruption matrix."""
    root = str(tmp_path)
    path = _BUILDERS[artifact](root)
    corrupt(path, corruption)
    report = fsck_tree(root)
    assert report.corrupt, (
        f"fsck missed {corruption} injected into {artifact}"
    )
    assert report.unrepaired  # report-only pass: nothing was fixed


def test_fsck_repair_leaves_loadable_tree(tmp_path):
    """Acceptance: after ``fsck --repair`` every surviving artifact
    loads; unrecoverable ones are quarantined, leftovers deleted."""
    root = str(tmp_path)
    result = _build_result(root)
    reproducer = _build_reproducer(root)
    journal = _build_journal(root)
    healthy = _build_result(root, "healthy.json")

    corrupt(result, "truncate-half")  # unrecoverable -> quarantine
    corrupt(reproducer, "tmp-leftover")  # sibling debris -> delete
    corrupt(journal, "zero-fill")     # append-style -> salvage prefix

    report = fsck_tree(root, repair=True)
    assert not report.unrepaired, report.summary()
    actions = {f.path: f.action for f in report.findings if f.action}
    assert actions[result].startswith("quarantined:")
    assert actions[reproducer + ".partial.tmp"] == "deleted"
    assert actions[journal].startswith("salvaged:")

    # The quarantined bytes are preserved, not destroyed.
    assert os.path.isdir(result + ".quarantine")
    assert not os.path.exists(result)

    # Everything still on disk loads cleanly; a second fsck is quiet.
    assert load_reproducer(reproducer)["result"]["outcome"] == "clean"
    assert read_result(healthy).key == "gzip|base|w4"
    salvaged = SweepJournal(journal)
    assert salvaged.salvaged is None and len(salvaged) >= 1
    clean = fsck_tree(root)
    assert not clean.corrupt, clean.summary()


def test_fsck_repair_delete_mode(tmp_path):
    root = str(tmp_path)
    path = _build_result(root)
    corrupt(path, "bit-flip")
    report = fsck_tree(root, repair=True, delete=True)
    assert not report.unrepaired
    assert not os.path.exists(path)
    assert not os.path.isdir(path + ".quarantine")


def test_fsck_skips_foreign_files(tmp_path):
    """Files fsck does not recognize are reported as skipped and never
    touched, even in repair mode."""
    root = str(tmp_path)
    notes = os.path.join(root, "notes.txt")
    open(notes, "w").write("not an artifact\n")
    foreign = os.path.join(root, "foreign.json")
    with open(foreign, "w") as fh:
        json.dump({"some": "other tool's file"}, fh)
    report = fsck_tree(root, repair=True, delete=True)
    assert not report.corrupt
    assert os.path.exists(notes) and os.path.exists(foreign)
    assert all(f.status == "skipped" for f in report.findings)
