"""Fuzz harness: deterministic sampling, outcome classification, and
reproducer specs that replay their recorded failure exactly."""

import dataclasses
import json

import pytest

from repro.oracle.fuzz import (
    REPRODUCER_VERSION,
    FuzzSpec,
    ReplayMismatch,
    fuzz,
    load_reproducer,
    replay_spec,
    run_spec,
    sample_spec,
    shrink_spec,
    write_reproducer,
)
from repro.store import SchemaMismatch

# A small, fast, healthy case used across the tests below.
_CLEAN = FuzzSpec(
    seed=0, benchmark="gzip", length=600, warmup=1200, trace_seed=3,
    oracle_interval=64, audit_interval=256,
)

# Seeded corruption that the auditor catches (free-list audit).
_CAUGHT = dataclasses.replace(_CLEAN, fault="double-free", fault_cycle=60)

# Seeded corruption that neither checker can see: with the auditor off,
# a register silently vanishing from the free list is invisible to the
# golden model (no architectural value changes) — a guaranteed escape,
# which run_spec must classify as a finding.
_ESCAPE = dataclasses.replace(
    _CLEAN, fault="free-list-leak", fault_cycle=60, audit=False
)


def test_sample_spec_deterministic():
    assert sample_spec(42) == sample_spec(42)
    specs = [sample_spec(s) for s in range(20)]
    assert len({spec.benchmark for spec in specs}) > 1
    assert all(spec.seed == i for i, spec in enumerate(specs))


def test_sample_spec_fault_rate():
    none = [sample_spec(s, fault_rate=0.0) for s in range(10)]
    assert all(spec.fault is None for spec in none)
    some = [sample_spec(s, fault_rate=1.0) for s in range(10)]
    assert all(spec.fault is not None for spec in some)


def test_sample_spec_repairs_vp_plus_er():
    """Incompatible knobs are repaired, never emitted."""
    for seed in range(60):
        spec = sample_spec(seed)
        assert not (spec.virtual_physical and spec.early_release)


def test_spec_dict_roundtrip():
    spec = sample_spec(7, fault_rate=1.0)
    assert FuzzSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec


def test_run_spec_clean():
    assert run_spec(_CLEAN)["outcome"] == "clean"


def test_run_spec_catches_seeded_fault():
    result = run_spec(_CAUGHT)
    assert result["outcome"] == "caught"
    assert result["error_type"] == "AuditError"
    assert result["fault_applied"] is not None


def test_run_spec_reports_escape_as_finding():
    result = run_spec(_ESCAPE)
    assert result["outcome"] == "finding"
    assert result["kind"] == "fault-escaped"
    assert "free-list-leak" in result["message"]


def test_run_spec_not_applicable():
    # A refcount fault on a machine that keeps no refcounts (base
    # scheme: no PRI, no ER) never finds state to corrupt.
    spec = dataclasses.replace(
        _CLEAN, pri=False, fault="refcount-drop", fault_cycle=60
    )
    assert run_spec(spec)["outcome"] == "not-applicable"


def test_shrink_preserves_failure():
    result = run_spec(_ESCAPE)
    shrunk = shrink_spec(_ESCAPE, result)
    assert shrunk.warmup == 0
    assert shrunk.length <= _ESCAPE.length
    again = run_spec(shrunk)
    assert again["outcome"] == "finding"
    assert again["kind"] == "fault-escaped"


def test_reproducer_roundtrip_and_replay(tmp_path):
    """Acceptance: a written reproducer spec deterministically reproduces
    its recorded failure."""
    result = run_spec(_ESCAPE)
    path = write_reproducer(_ESCAPE, result, str(tmp_path / "repro.json"))
    payload = load_reproducer(path)
    assert payload["version"] == REPRODUCER_VERSION
    assert FuzzSpec.from_dict(payload["spec"]) == _ESCAPE
    fresh = replay_spec(path)
    assert fresh["outcome"] == result["outcome"]
    assert fresh["kind"] == result["kind"]


def test_replay_mismatch_detected(tmp_path):
    result = run_spec(_CLEAN)
    path = str(tmp_path / "repro.json")
    write_reproducer(
        _CLEAN, {**result, "outcome": "finding", "error_type": "X"}, path
    )
    with pytest.raises(ReplayMismatch, match="replay produced"):
        replay_spec(path)


def test_reproducer_version_enforced(tmp_path):
    from repro.store import read_json_artifact, write_json_artifact
    from repro.oracle.fuzz import REPRODUCER_KIND

    path = str(tmp_path / "repro.json")
    write_reproducer(_CLEAN, run_spec(_CLEAN), path)
    payload, _ = read_json_artifact(path, REPRODUCER_KIND)
    payload["version"] = REPRODUCER_VERSION + 1
    write_json_artifact(path, REPRODUCER_KIND, REPRODUCER_VERSION + 1, payload)
    with pytest.raises(ValueError, match="version"):
        load_reproducer(path)


def test_reproducer_plain_json_is_rejected(tmp_path):
    """A reproducer outside the checksummed envelope (plain JSON) fails
    as a typed artifact error."""
    path = str(tmp_path / "plain.json")
    payload = {
        "version": REPRODUCER_VERSION,
        "spec": _CLEAN.to_dict(),
        "result": {"outcome": "clean"},
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
    with pytest.raises(SchemaMismatch):
        load_reproducer(path)


def test_fuzz_campaign_writes_reproducers(tmp_path, monkeypatch):
    """A tiny campaign: one clean case and one escape; the escape is
    shrunk and written out as a reproducer spec."""
    import importlib

    # ``import repro.oracle.fuzz`` would resolve to the re-exported
    # fuzz() *function* on the package; fetch the module itself.
    fuzz_module = importlib.import_module("repro.oracle.fuzz")
    specs = {0: _CLEAN, 1: _ESCAPE}
    monkeypatch.setattr(
        fuzz_module, "sample_spec",
        lambda seed, benchmarks=None, fault_rate=0.0: specs[seed],
    )
    report = fuzz([0, 1], out_dir=str(tmp_path))
    assert report.cases == 2
    assert report.clean == 1
    assert len(report.findings) == 1
    finding = report.findings[0]
    assert finding.reproducer_path is not None
    assert replay_spec(finding.reproducer_path)["outcome"] == "finding"
    assert "fault-escaped" in str(finding)
