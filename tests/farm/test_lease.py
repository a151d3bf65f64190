"""Unit tests for the farm's on-disk lease protocol and backoff."""

import dataclasses
import os

import pytest

from repro.farm.lease import (
    FARM_SCHEMA,
    RESULT_KIND,
    CellResult,
    CellSpec,
    FarmPaths,
    LeaseLost,
    cid_of,
    claim,
    heartbeat,
    iter_results,
    list_cells,
    list_leases,
    list_results,
    read_cell,
    read_lease,
    read_result,
    release,
    write_cell,
    write_result,
)
from repro.retry import backoff_delay
from repro.store import atomic_write_bytes, envelope_bytes


@pytest.fixture
def paths(tmp_path):
    return FarmPaths(str(tmp_path / "farm")).ensure()


def _cell(key="gcc|base|w4|n300|u600|s2|c0|a0|deadbeef"):
    return CellSpec(
        cid=cid_of(key), key=key, benchmark="gcc", scheme="base",
        width=4, spec={"length": 300, "warmup": 600, "seed": 2},
    )


# ------------------------------------------------------------ cell specs


def test_cell_spec_roundtrip(paths):
    cell = _cell()
    write_cell(paths, cell)
    assert list_cells(paths) == [cell.cid]
    back = read_cell(paths.cell(cell.cid))
    assert back == cell


def test_cell_rewrite_preserves_attempt_fence(paths):
    cell = _cell()
    write_cell(paths, cell)
    cell.attempt = 3
    cell.not_before = 123.5
    write_cell(paths, cell)
    back = read_cell(paths.cell(cell.cid))
    assert back.attempt == 3
    assert back.not_before == 123.5


# ---------------------------------------------------------------- claims


def test_claim_is_exclusive(paths):
    cell = _cell()
    write_cell(paths, cell)
    lease = claim(paths, cell, "w0", ttl=5.0)
    assert lease is not None
    assert lease.worker == "w0"
    # Second claim loses: the O_EXCL create arbitrates.
    assert claim(paths, cell, "w1", ttl=5.0) is None
    assert list_leases(paths) == [cell.cid]


def test_claim_after_release(paths):
    cell = _cell()
    write_cell(paths, cell)
    lease = claim(paths, cell, "w0", ttl=5.0)
    assert release(paths, lease) is True
    assert list_leases(paths) == []
    assert claim(paths, cell, "w1", ttl=5.0) is not None


def test_release_refuses_foreign_lease(paths):
    cell = _cell()
    write_cell(paths, cell)
    mine = claim(paths, cell, "w0", ttl=5.0)
    # Simulate the broker reclaiming and another worker re-claiming.
    os.unlink(paths.lease(cell.cid))
    theirs = claim(paths, cell, "w1", ttl=5.0)
    assert theirs is not None
    # The original holder must not delete the new holder's lease.
    assert release(paths, mine) is False
    assert read_lease(paths.lease(cell.cid)).worker == "w1"


# ------------------------------------------------------------ heartbeats


def test_heartbeat_refreshes_and_carries_progress(paths):
    cell = _cell()
    write_cell(paths, cell)
    lease = claim(paths, cell, "w0", ttl=5.0)
    before = read_lease(paths.lease(cell.cid)).heartbeat_unix
    heartbeat(paths, lease, cycle=1234, committed=567)
    after = read_lease(paths.lease(cell.cid))
    assert after.heartbeat_unix >= before
    assert after.cycle == 1234
    assert after.committed == 567
    assert after.worker == "w0"


def test_heartbeat_raises_when_lease_vanished(paths):
    cell = _cell()
    write_cell(paths, cell)
    lease = claim(paths, cell, "w0", ttl=5.0)
    os.unlink(paths.lease(cell.cid))
    with pytest.raises(LeaseLost):
        heartbeat(paths, lease)


def test_heartbeat_never_overwrites_foreign_lease(paths):
    cell = _cell()
    write_cell(paths, cell)
    mine = claim(paths, cell, "w0", ttl=5.0)
    os.unlink(paths.lease(cell.cid))
    bumped = dataclasses.replace(cell)
    bumped.attempt = 2
    claim(paths, bumped, "w1", ttl=5.0)
    with pytest.raises(LeaseLost):
        heartbeat(paths, mine, cycle=999)
    current = read_lease(paths.lease(cell.cid))
    assert current.worker == "w1"
    assert current.cycle == 0  # untouched by the losing heartbeat


def test_heartbeat_loses_to_attempt_fence_before_lease_unlink(paths):
    """The heartbeat-at-TTL-boundary race, pinned: reclaim rewrites the
    cell spec (attempt bumped) *before* unlinking the lease file, and a
    heartbeat checks that fence before writing.  A heartbeat landing in
    the gap — spec already bumped, lease file still present — must lose
    deterministically and leave the lease file byte-identical; without
    the fence its atomic rename would resurrect the file after the
    broker's unlink, leaving a zombie that believed it held the cell."""
    cell = _cell()
    write_cell(paths, cell)
    lease = claim(paths, cell, "w0", ttl=1.0)
    bumped = dataclasses.replace(cell)
    bumped.attempt = 2
    write_cell(paths, bumped)  # reclaim step 1: the fence is up
    with open(paths.lease(cell.cid), "rb") as fh:
        before = fh.read()
    with pytest.raises(LeaseLost, match="fences out"):
        heartbeat(paths, lease, cycle=4096, committed=100)
    with open(paths.lease(cell.cid), "rb") as fh:
        assert fh.read() == before  # the loser never rewrote the file


def test_lease_expiry_clock(paths):
    cell = _cell()
    write_cell(paths, cell)
    lease = claim(paths, cell, "w0", ttl=2.0)
    now = lease.heartbeat_unix
    assert not lease.expired(now + 1.9)
    assert lease.expired(now + 2.1)


# --------------------------------------------------------------- results


def test_result_roundtrip_and_duplicates_coexist(paths):
    cell = _cell()
    first = CellResult(cid=cell.cid, key=cell.key, worker="w0", attempt=1,
                       status="ok", stats={"committed": 300})
    zombie = CellResult(cid=cell.cid, key=cell.key, worker="w1", attempt=2,
                        status="ok", stats={"committed": 300})
    write_result(paths, first)
    write_result(paths, zombie)
    # One logical cell, two physical files — duplicates must coexist so
    # the broker can verify them instead of losing one to an overwrite.
    assert list_results(paths) == [cell.cid]
    files = iter_results(paths)
    assert len(files) == 2
    assert {read_result(p).worker for _cid, p in files} == {"w0", "w1"}


def test_error_result_roundtrip(paths):
    cell = _cell()
    err = CellResult(cid=cell.cid, key=cell.key, worker="broker", attempt=3,
                     status="error", kind="crash", error_type="LeaseExpired",
                     message="gone")
    write_result(paths, err)
    ((_cid, path),) = iter_results(paths)
    back = read_result(path)
    assert back.kind == "crash"
    assert back.error_type == "LeaseExpired"


def test_result_with_a_dropped_field_still_reads(paths):
    """A result an older build wrote may carry a field results no
    longer have: it still reads, so its cell folds."""
    cell = _cell()
    payload = CellResult(cid=cell.cid, key=cell.key, worker="w0", attempt=1,
                         status="ok", stats={"committed": 300}).to_dict()
    path = paths.result(cell.cid, 1, "w0")
    atomic_write_bytes(path, envelope_bytes(
        RESULT_KIND, FARM_SCHEMA, {**payload, "dropped_field": 120}))
    assert read_result(path).to_dict() == payload


# --------------------------------------------------------------- backoff


def test_backoff_is_deterministic_and_jittered():
    a = backoff_delay(2, 0.5, cap=30.0, token="gcc|base")
    b = backoff_delay(2, 0.5, cap=30.0, token="gcc|base")
    c = backoff_delay(2, 0.5, cap=30.0, token="mesa|base")
    assert a == b           # reproducible schedules
    assert a != c           # spread across cells


def test_backoff_growth_and_cap():
    base = 0.5
    for attempt in range(1, 20):
        delay = backoff_delay(attempt, base, cap=4.0, token="t")
        raw = min(4.0, base * 2 ** (attempt - 1))
        assert raw / 2 <= delay < raw
    # Far attempts are capped, not unbounded like a plain
    # base * 2**attempt schedule.
    assert backoff_delay(60, base, cap=4.0, token="t") < 4.0


def test_backoff_clamps_bad_attempt():
    assert backoff_delay(0, 1.0, cap=8.0, token="x") <= 1.0
