"""The crash-state model: forcing rules, reorderings, tears."""

import os

from repro.crash import apply_ops, enumerate_states, forced_indices, materialize
from repro.crash.oplog import Op, STATEFUL


def _atomic_write(path, data, *, durable=True, tmp=None):
    tmp = tmp or path + ".123.tmp"
    ops = [Op("write", tmp, data=data)]
    if durable:
        ops.append(Op("fsync", tmp))
    ops.append(Op("rename", tmp, dst=path))
    if durable:
        ops.append(Op("fsync_dir", os.path.dirname(path) or ""))
    return ops


# ------------------------------------------------------------- forcing


def test_fsync_forces_prior_data_ops_on_that_path_only():
    ops = [
        Op("write", "a.tmp", data=b"A"),
        Op("write", "b.tmp", data=b"B"),
        Op("fsync", "a.tmp"),
    ]
    assert forced_indices(ops, 3) == {0}
    assert forced_indices(ops, 2) == set()


def test_fsync_dir_forces_metadata_in_that_directory():
    ops = [
        Op("create", "leases/c.lease"),
        Op("rename", "x.tmp", dst="a.json"),
        Op("unlink", "old.json"),
        Op("fsync_dir", ""),
    ]
    # Root-dir fsync forces the rename and the unlink, not the create
    # in leases/.
    assert forced_indices(ops, 4) == {1, 2}
    ops.append(Op("fsync_dir", "leases"))
    assert forced_indices(ops, 5) == {0, 1, 2}


def test_skipped_fsync_dir_forces_nothing():
    ops = [
        Op("rename", "x.tmp", dst="a.json"),
        Op("fsync_dir", "", skipped=True),
    ]
    assert forced_indices(ops, 2) == set()


def test_fsync_does_not_force_the_directory_entry():
    # The O_EXCL lease claim: payload fsynced, entry not — the file can
    # vanish wholesale (liveness), which is why claims are retried.
    ops = [
        Op("create", "c.lease"),
        Op("write", "c.lease", data=b"claim"),
        Op("fsync", "c.lease"),
    ]
    assert forced_indices(ops, 3) == {1}


def test_rename_forced_by_either_directory():
    ops = [
        Op("rename", "spool/x.tmp", dst="final/a.json"),
        Op("fsync_dir", "spool"),
    ]
    assert forced_indices(ops, 2) == {0}


# ------------------------------------------------------------ applying


def test_all_applied_reproduces_the_final_image():
    ops = _atomic_write("a.json", b"one") + _atomic_write("a.json", b"two")
    assert apply_ops(ops, len(ops)) == {"a.json": b"two"}


def test_dropped_rename_keeps_old_content_and_tmp_debris():
    ops = _atomic_write("a.json", b"one") \
        + _atomic_write("a.json", b"two", tmp="a.json.456.tmp")
    rename2 = next(i for i, op in enumerate(ops)
                   if op.kind == "rename" and op.path == "a.json.456.tmp")
    fs = apply_ops(ops, len(ops), drops=frozenset([rename2]))
    assert fs["a.json"] == b"one"
    assert fs["a.json.456.tmp"] == b"two"


def test_dropped_create_suppresses_later_data_to_that_path():
    ops = [
        Op("create", "c.lease"),
        Op("write", "c.lease", data=b"claim"),
        Op("fsync", "c.lease"),
    ]
    fs = apply_ops(ops, 3, drops=frozenset([0]))
    assert "c.lease" not in fs


def test_dropped_rename_suppresses_later_appends_to_destination():
    # CheckedLog.append writes the header with the first record
    # atomically, then appends: if the rename never persisted, the
    # appended lines are unreachable through the journal's name.
    ops = _atomic_write("journal.json", b"header\n") + [
        Op("append", "journal.json", data=b"line\n", offset=7),
        Op("fsync", "journal.json"),
    ]
    rename = next(i for i, op in enumerate(ops) if op.kind == "rename")
    fs = apply_ops(ops, len(ops), drops=frozenset([rename]))
    assert "journal.json" not in fs


def test_torn_append_keeps_prefix_at_recorded_offset():
    ops = [
        Op("write", "j", data=b"0123456789"),
        Op("append", "j", data=b"ABCDEF", offset=10),
    ]
    fs = apply_ops(ops, 2, tears={1: 3})
    assert fs["j"] == b"0123456789ABC"


def test_dropped_earlier_append_zero_fills_the_gap():
    ops = [
        Op("write", "j", data=b"hdr"),
        Op("append", "j", data=b"AA", offset=3),
        Op("append", "j", data=b"BB", offset=5),
    ]
    fs = apply_ops(ops, 3, drops=frozenset([1]))
    assert fs["j"] == b"hdr\x00\x00BB"


def test_dropped_unlink_keeps_the_file():
    ops = [Op("write", "x", data=b"v"), Op("unlink", "x")]
    assert apply_ops(ops, 2, drops=frozenset([1])) == {"x": b"v"}
    assert apply_ops(ops, 2) == {}


# ---------------------------------------------------------- enumeration


def test_enumeration_covers_extremes_and_single_faults():
    ops = _atomic_write("a.json", b"payload", durable=False)
    states = list(enumerate_states(ops))
    images = {tuple(sorted(s.fs.items())) for s in states}
    assert () in images                                   # nothing landed
    assert (("a.json", b"payload"),) in images            # all landed
    # rename without data: the classic rename-before-write image.
    assert (("a.json", b""),) in images


def test_durable_write_leaves_nothing_pending():
    ops = _atomic_write("a.json", b"payload", durable=True)
    k = len(ops)
    forced = forced_indices(ops, k)
    pending = [i for i in range(k)
               if ops[i].kind in STATEFUL and i not in forced]
    assert pending == []  # data forced by fsync, rename by fsync_dir
    assert apply_ops(ops, k) == {"a.json": b"payload"}


def test_states_are_deduplicated():
    ops = _atomic_write("a.json", b"xy", durable=True)
    states = list(enumerate_states(ops))
    digests = [s.digest() for s in states]
    assert len(digests) == len(set(digests))


def test_acked_tracks_crash_point():
    ops = [Op("write", "a", data=b"1"), Op("ack", label="one"),
           Op("write", "b", data=b"2"), Op("ack", label="two")]
    by_index = {}
    for state in enumerate_states(ops):
        by_index.setdefault(state.index, state)
    assert [op.label for op in by_index[1].acked] == []
    assert [op.label for op in by_index[2].acked] == ["one"]
    assert [op.label for op in by_index[4].acked] == ["one", "two"]


def test_materialize_roundtrip(tmp_path):
    fs = {"a.json": b"alpha", "leases/c.lease": b"claim", "empty": b""}
    materialize(fs, str(tmp_path / "scratch"))
    for rel, data in fs.items():
        with open(tmp_path / "scratch" / rel, "rb") as fh:
            assert fh.read() == data
