"""A farm root holding records of the previous farm schema (1), whose
cell specs and results still carried the vector-column fields: the
sweep resumes on it and re-runs every cell it cannot read."""

import dataclasses
import os
import threading

import pytest

from repro.experiments import RunSpec, run_matrix
from repro.experiments.journal import cell_key
from repro.farm import FarmSpec
from repro.farm.lease import (
    CELL_KIND,
    LEASE_KIND,
    RESULT_KIND,
    FarmPaths,
    Lease,
    cid_of,
    list_results,
    read_cell,
    read_result,
    set_aside_unreadable_results,
)
from repro.store import SchemaMismatch, atomic_write_bytes, envelope_bytes

_SPEC = RunSpec(length=300, warmup=600, seed=2)
_PRI = "PRI-refcount+ckptcount"


def _write_schema1(path, kind, payload):
    atomic_write_bytes(path, envelope_bytes(kind, 1, payload))


def _schema1_cell(key, benchmark, scheme, backend="scalar", lanes=None):
    return {"cid": cid_of(key), "key": key, "benchmark": benchmark,
            "scheme": scheme, "width": 4, "spec": dataclasses.asdict(_SPEC),
            "attempt": 1, "not_before": 0.0, "released": 0,
            "backend": backend, "lanes": lanes}


def _schema1_result(key, worker, stats=None, lane_stats=None):
    return {"cid": cid_of(key), "key": key, "worker": worker, "attempt": 1,
            "status": "ok", "stats": stats, "kind": None, "error_type": None,
            "message": None, "start_cycle": 0, "elapsed": 0.1,
            "lane_stats": lane_stats, "lane_errors": {}}


def test_schema1_records_read_as_schema_mismatch(tmp_path):
    key = cell_key("gcc", "base", 4, _SPEC)
    cell_path, result_path = str(tmp_path / "c.json"), str(tmp_path / "r.json")
    _write_schema1(cell_path, CELL_KIND, _schema1_cell(key, "gcc", "base"))
    _write_schema1(result_path, RESULT_KIND,
                   _schema1_result(key, "w0", stats={"committed": 1}))
    with pytest.raises(SchemaMismatch):
        read_cell(cell_path)
    with pytest.raises(SchemaMismatch):
        read_result(result_path)


def test_unreadable_result_no_longer_marks_its_cell_done(tmp_path):
    key = cell_key("gcc", "base", 4, _SPEC)
    paths = FarmPaths(str(tmp_path / "farm")).ensure()
    _write_schema1(paths.result(cid_of(key), 1, "w0"), RESULT_KIND,
                   _schema1_result(key, "w0", stats={"committed": 1}))
    assert cid_of(key) in list_results(paths)
    set_aside_unreadable_results(paths, {cid_of(key)})
    assert list_results(paths) == []


def test_sweep_resumes_on_a_schema1_root(tmp_path):
    plain = run_matrix(("gcc",), ("base", _PRI), 4, _SPEC)
    farm = FarmSpec(root=str(tmp_path / "farm"), workers=1, lease_ttl=5.0,
                    heartbeat_interval=0.1, poll_interval=0.05)
    paths = farm.paths.ensure()
    # A scalar cell the old broker published, with an unfolded result
    # (bogus stats: reusing it would show) and an expired lease.
    key = cell_key("gcc", "base", 4, _SPEC)
    cid = cid_of(key)
    _write_schema1(paths.cell(cid), CELL_KIND, _schema1_cell(key, "gcc", "base"))
    stale_result = paths.result(cid, 1, "w0.1")
    _write_schema1(stale_result, RESULT_KIND,
                   _schema1_result(key, "w0.1", stats={"committed": 1}))
    lease = Lease(cid=cid, key=key, worker="w0.1", attempt=1, ttl=1.0,
                  granted_unix=0.0, heartbeat_unix=0.0)
    _write_schema1(paths.lease(cid), LEASE_KIND, lease.to_dict())
    # A vector column over both cells, with its per-lane result.
    column = f"column|gcc|{cid_of(key)}"
    _write_schema1(paths.cell(cid_of(column)), CELL_KIND, _schema1_cell(
        column, "gcc", "base", backend="vector",
        lanes=[["gcc", "base"], ["gcc", _PRI]]))
    _write_schema1(paths.result(cid_of(column), 1, "w1.1"), RESULT_KIND,
                   _schema1_result(column, "w1.1", lane_stats={
                       "gcc|base": {"committed": 1}}))

    # Workers counting the stale result as done would leave the broker
    # waiting for a fold that never comes: bound the wait.
    out = {}
    sweep = threading.Thread(target=lambda: out.update(result=run_matrix(
        ("gcc",), ("base", _PRI), 4, _SPEC, farm=farm)), daemon=True)
    sweep.start()
    sweep.join(120)
    assert not sweep.is_alive(), "sweep hung on the schema-1 root"
    result = out["result"]

    for scheme in ("base", _PRI):
        assert result["gcc"][scheme].to_dict() == plain["gcc"][scheme].to_dict()
    assert farm.report.completed == 2
    assert not os.path.exists(stale_result)  # set aside, so the cell re-ran
    assert not os.path.exists(paths.cell(cid_of(column)))  # pruned
    assert read_cell(paths.cell(cid)).key == key  # republished as schema 2
