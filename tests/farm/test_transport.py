"""Unit tests for the filesystem lease transport.

:class:`~repro.farm.transport.FsTransport` groups the lease protocol's
worker half (claim, release, results) and broker half (publish,
reclaim, scrub, the result cursor) over one shared directory; the
broker-level behavior is exercised end to end by ``test_chaos.py``.
"""

import pytest

from repro.farm.lease import CellResult, CellSpec, cid_of, read_lease
from repro.farm.transport import FsTransport


def _cell(key="gcc|base|w4|n300|u600|s2|c0|a0|deadbeef", **kw):
    return CellSpec(
        cid=cid_of(key), key=key, benchmark="gcc", scheme="base",
        width=4, spec={"length": 300, "warmup": 600, "seed": 2}, **kw,
    )


def _ok(cell, worker, attempt=1):
    return CellResult(cid=cell.cid, key=cell.key, worker=worker,
                      attempt=attempt, status="ok",
                      stats={"committed": 7})


def test_claim_is_exclusive_until_released(tmp_path):
    transport = FsTransport(str(tmp_path / "farm"))
    cell = _cell()
    transport.publish(cell)
    lease = transport.claim(cell, "w0", ttl=30.0)
    assert lease is not None
    assert transport.claim(cell, "w1", ttl=30.0) is None  # taken
    assert transport.release(lease)
    assert transport.claim(cell, "w1", ttl=30.0) is not None


def test_new_results_is_a_cursor(tmp_path):
    worker = FsTransport(str(tmp_path / "farm"))
    broker = FsTransport(str(tmp_path / "farm"))
    a, b = _cell("ka"), _cell("kb")
    for cell in (a, b):
        broker.publish(cell)
    for cell in (a, b):
        lease = worker.claim(cell, "w0", ttl=30.0)
        worker.write_result(_ok(cell, "w0"))
        worker.release(lease)
    first = broker.new_results()
    assert {r.cid for r in first} == {a.cid, b.cid}
    assert broker.new_results() == []        # already folded


def test_fs_publish_preserves_attempt_fence(tmp_path):
    transport = FsTransport(str(tmp_path / "farm"))
    cell = _cell()
    transport.publish(cell)
    assert transport.claim(cell, "w0", ttl=30.0) is not None
    bumped = CellSpec.from_dict(cell.to_dict())
    bumped.attempt = 2
    transport.reclaim(bumped)
    # A resumed broker republishing the original (attempt-1) spec must
    # not rewind the fence.
    republished = transport.publish(_cell())
    assert republished.attempt == 2


def test_fs_read_cell_raises_keyerror_when_pruned(tmp_path):
    transport = FsTransport(str(tmp_path / "farm"))
    with pytest.raises(KeyError):
        transport.read_cell("nope")


def test_fs_scrub_fenced_never_deletes_a_successor_lease(tmp_path):
    """scrub_fenced is ownership-checked like release(): it removes the
    exact stale lease the broker observed, never one a new claim just
    created in the gap."""
    transport = FsTransport(str(tmp_path / "farm"))
    cell = _cell()
    transport.publish(cell)
    stale = transport.claim(cell, "ghost", ttl=30.0)
    bumped = CellSpec.from_dict(cell.to_dict())
    bumped.attempt = 2
    transport.reclaim(bumped)                 # unlinks ghost's lease
    fresh = transport.claim(bumped, "w1", ttl=30.0)
    assert fresh is not None

    (view,) = transport.lease_views()
    view = type(view)(cid=view.cid, lease=stale, age=view.age,
                      held=view.held)         # the broker's stale view
    transport.scrub_fenced(view)
    current = read_lease(transport.paths.lease(cell.cid))
    assert current.worker == "w1"             # survivor untouched
