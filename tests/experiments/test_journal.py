"""The sweep journal: digest-bearing cell keys and schema-version
enforcement."""

import dataclasses
import json
import os

import pytest

from repro.experiments import RunSpec, SweepJournal, cell_key
from repro.experiments.journal import _VERSION
from repro.experiments.runner import resolve_config

_SPEC = RunSpec(length=300, warmup=600, seed=2)
_PRI = "PRI-refcount+ckptcount"


# ----------------------------------------------------------- cell keys


def test_cell_key_includes_config_digest():
    key = cell_key("gzip", _PRI, 4, _SPEC)
    digest = key.rsplit("|", 1)[1]
    assert len(digest) == 12 and int(digest, 16) >= 0


def test_cell_key_distinguishes_prf_size():
    """The Figure 9 PRF sweep: same scheme/width/spec, different register
    file — the keys must not collide."""
    base = resolve_config(_PRI, 4, _SPEC)
    small = base.with_phys_regs(40)
    key_base = cell_key("gzip", _PRI, 4, _SPEC, config=base)
    key_small = cell_key("gzip", _PRI, 4, _SPEC, config=small)
    assert key_base != key_small
    # ... and only in the digest: the readable prefix is identical.
    assert key_base.rsplit("|", 1)[0] == key_small.rsplit("|", 1)[0]


def test_cell_key_default_config_matches_run_one():
    explicit = cell_key(
        "gzip", _PRI, 4, _SPEC, config=resolve_config(_PRI, 4, _SPEC)
    )
    assert cell_key("gzip", _PRI, 4, _SPEC) == explicit


def test_cell_key_reflects_oracle_flag():
    with_oracle = dataclasses.replace(_SPEC, oracle=True)
    assert cell_key("gzip", "base", 4, _SPEC) != cell_key(
        "gzip", "base", 4, with_oracle
    )


# ------------------------------------------------------ journal version


def test_journal_version_mismatch_raises(tmp_path):
    path = str(tmp_path / "sweep.json")
    with open(path, "w") as fh:
        json.dump({"version": _VERSION - 1, "cells": {"k": {}}}, fh)
    with pytest.raises(ValueError, match="version"):
        SweepJournal(path)


def test_journal_version_archive_and_restart(tmp_path):
    path = str(tmp_path / "sweep.json")
    with open(path, "w") as fh:
        json.dump({"version": _VERSION - 1, "cells": {"k": {}}}, fh)
    journal = SweepJournal(path, archive_incompatible=True)
    assert journal.archived == f"{path}.v{_VERSION - 1}.bak"
    assert os.path.exists(journal.archived)
    assert len(journal) == 0
    # the fresh journal is usable and persists at the new version
    journal.record_error("k", {"kind": "crash"})
    from repro.store import read_checked_lines

    lines = read_checked_lines(path)
    assert lines.clean
    assert lines.records[0]["version"] == _VERSION
    assert len(SweepJournal(path).errors()) == 1


def test_journal_current_version_loads_silently(tmp_path):
    path = str(tmp_path / "sweep.json")
    journal = SweepJournal(path)
    journal.record_error("k", {"kind": "crash"})
    reloaded = SweepJournal(path)
    assert reloaded.archived is None
    assert len(reloaded) == 1
