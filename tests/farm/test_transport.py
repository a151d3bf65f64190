"""Unit tests for the broker half of the lease protocol.

:mod:`repro.farm.lease` holds both halves the farm calls directly: the
worker half (claim, release, results) and the broker half (publish,
prune, lease views, reclaim); the broker-level behavior is exercised
end to end by ``test_chaos.py``.
"""

import pytest

from repro.farm.lease import (
    CellResult,
    CellSpec,
    FarmPaths,
    cid_of,
    claim,
    iter_results,
    lease_views,
    list_cells,
    prune,
    publish,
    read_cell,
    read_lease,
    read_result,
    reclaim,
    release,
    write_result,
)


def _cell(key="gcc|base|w4|n300|u600|s2|c0|a0|deadbeef", **kw):
    return CellSpec(
        cid=cid_of(key), key=key, benchmark="gcc", scheme="base",
        width=4, spec={"length": 300, "warmup": 600, "seed": 2}, **kw,
    )


def _ok(cell, worker, attempt=1):
    return CellResult(cid=cell.cid, key=cell.key, worker=worker,
                      attempt=attempt, status="ok",
                      stats={"committed": 7})


@pytest.fixture
def paths(tmp_path):
    return FarmPaths(str(tmp_path / "farm")).ensure()


def test_claim_is_exclusive_until_released(paths):
    cell = _cell()
    publish(paths, cell)
    lease = claim(paths, cell, "w0", ttl=30.0)
    assert lease is not None
    assert claim(paths, cell, "w1", ttl=30.0) is None  # taken
    assert release(paths, lease)
    assert claim(paths, cell, "w1", ttl=30.0) is not None


def test_worker_results_read_back_through_iter_results(paths):
    a, b = _cell("ka"), _cell("kb")
    for cell in (a, b):
        publish(paths, cell)
    for cell in (a, b):
        lease = claim(paths, cell, "w0", ttl=30.0)
        write_result(paths, _ok(cell, "w0"))
        release(paths, lease)
    listed = iter_results(paths)
    assert len({path for _cid, path in listed}) == 2   # one file each
    results = [read_result(path) for _cid, path in listed]
    assert {r.cid for r in results} == {a.cid, b.cid}
    assert [cid for cid, _path in listed] == [r.cid for r in results]


def test_fs_publish_preserves_attempt_fence(paths):
    cell = _cell()
    publish(paths, cell)
    assert claim(paths, cell, "w0", ttl=30.0) is not None
    bumped = CellSpec.from_dict(cell.to_dict())
    bumped.attempt = 2
    reclaim(paths, bumped)
    assert not lease_views(paths)              # the lease went with it
    # A resumed broker republishing the original (attempt-1) spec must
    # not rewind the fence.
    republished = publish(paths, _cell())
    assert republished.attempt == 2


def test_read_cell_of_a_pruned_cell_raises_file_not_found(paths):
    with pytest.raises(FileNotFoundError):
        read_cell(paths.cell("nope"))


def test_fenced_release_never_deletes_a_successor_lease(paths):
    """The broker scrubs a fence-stale lease with release(), which is
    ownership-checked: it removes the exact stale lease the broker
    observed, never one a new claim just created in the gap."""
    cell = _cell()
    publish(paths, cell)
    stale = claim(paths, cell, "ghost", ttl=30.0)
    bumped = CellSpec.from_dict(cell.to_dict())
    bumped.attempt = 2
    reclaim(paths, bumped)                     # unlinks ghost's lease
    fresh = claim(paths, bumped, "w1", ttl=30.0)
    assert fresh is not None

    (view,) = lease_views(paths)
    assert view.lease.worker == "w1"
    assert not release(paths, stale)           # the broker's stale view
    current = read_lease(paths.lease(cell.cid))
    assert current.worker == "w1"              # survivor untouched


def test_prune_withdraws_other_cells_and_their_leases(paths):
    keep, drop = _cell("keep"), _cell("drop")
    for cell in (keep, drop):
        publish(paths, cell)
        assert claim(paths, cell, "w0", ttl=30.0) is not None
    prune(paths, {keep.cid})
    assert list_cells(paths) == [keep.cid]
    assert [view.cid for view in lease_views(paths)] == [keep.cid]


def test_terminal_reclaim_streams_the_error_and_keeps_the_fence(paths):
    cell = _cell()
    publish(paths, cell)
    assert claim(paths, cell, "w0", ttl=30.0) is not None
    error = CellResult(cid=cell.cid, key=cell.key, worker="broker",
                       attempt=1, status="error", kind="crash",
                       error_type="LeaseExpired", message="budget spent")
    reclaim(paths, cell, terminal=error)
    assert not lease_views(paths)
    ((_cid, path),) = iter_results(paths)
    assert read_result(path) == error
    assert read_cell(paths.cell(cell.cid)).attempt == 1   # not re-fenced
