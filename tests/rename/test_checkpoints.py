"""Checkpoint manager tests: dual-scope references, recovery, lazy
patching."""


from repro.isa.opcodes import RegClass
from repro.rename.checkpoints import CheckpointManager
from repro.rename.map_table import EntryMode, RenameMapTable
from repro.rename.refcount import RefCountTable


def _manager(capacity=4, track_er=True):
    maps = {
        RegClass.INT: RenameMapTable(4, 7),
        RegClass.FP: RenameMapTable(4, 1, fp_mode=True),
    }
    refcounts = {
        RegClass.INT: RefCountTable(16),
        RegClass.FP: RefCountTable(16),
    }
    mgr = CheckpointManager(capacity, maps, refcounts, track_er_refs=track_er)
    return mgr, maps, refcounts


class TestTake:
    def test_take_counts_pointer_refs_in_both_scopes(self):
        mgr, maps, rc = _manager()
        maps[RegClass.INT].set_pointer(0, 5)
        maps[RegClass.INT].set_immediate(1, 3)  # immediates take no refs
        mgr.take(1, [], 0)
        assert rc[RegClass.INT].checkpoint_refs(5) == 1
        assert rc[RegClass.INT].er_checkpoint_refs(5) == 1

    def test_capacity(self):
        mgr, maps, _ = _manager(capacity=2)
        assert mgr.take(1, [], 0) is not None
        assert mgr.take(2, [], 0) is not None
        assert mgr.full
        assert mgr.take(3, [], 0) is None

    def test_er_refs_not_tracked_when_disabled(self):
        mgr, maps, rc = _manager(track_er=False)
        maps[RegClass.INT].set_pointer(0, 5)
        mgr.take(1, [], 0)
        assert rc[RegClass.INT].checkpoint_refs(5) == 1
        assert rc[RegClass.INT].er_checkpoint_refs(5) == 0


class TestReleaseScopes:
    def test_release_drops_only_resolve_refs(self):
        mgr, maps, rc = _manager()
        maps[RegClass.INT].set_pointer(0, 5)
        ckpt = mgr.take(1, [], 0)
        mgr.release(ckpt)
        assert rc[RegClass.INT].checkpoint_refs(5) == 0
        assert rc[RegClass.INT].er_checkpoint_refs(5) == 1
        mgr.commit_retire(ckpt)
        assert rc[RegClass.INT].er_checkpoint_refs(5) == 0

    def test_release_is_idempotent(self):
        mgr, maps, rc = _manager()
        maps[RegClass.INT].set_pointer(0, 5)
        ckpt = mgr.take(1, [], 0)
        mgr.release(ckpt)
        mgr.release(ckpt)
        mgr.commit_retire(ckpt)
        mgr.commit_retire(ckpt)
        rc[RegClass.INT].assert_clean()

    def test_discard_drops_everything(self):
        mgr, maps, rc = _manager()
        maps[RegClass.INT].set_pointer(0, 5)
        ckpt = mgr.take(1, [], 0)
        mgr.discard(ckpt)
        rc[RegClass.INT].assert_clean()

    def test_on_unref_callback_fires(self):
        mgr, maps, _ = _manager()
        maps[RegClass.INT].set_pointer(0, 5)
        seen = []
        ckpt = mgr.take(1, [], 0)
        mgr.release(ckpt, lambda cls, preg: seen.append((cls, preg)))
        mgr.commit_retire(ckpt, lambda cls, preg: seen.append((cls, preg)))
        assert seen == [(RegClass.INT, 5), (RegClass.INT, 5)]
        assert not hasattr(mgr, "on_unref")  # handlers are never stored

    def test_discard_and_recover_split_handlers_by_scope(self):
        mgr, maps, _ = _manager()
        table = maps[RegClass.INT]
        table.set_pointer(0, 5)
        resolved, committed = [], []

        def on_resolve(cls, preg):
            resolved.append(preg)

        def on_commit(cls, preg):
            committed.append(preg)

        mgr.discard(mgr.take(1, [], 0), on_commit, on_resolve)
        assert resolved == [5] and committed == [5]
        older = mgr.take(2, [], 0)
        table.set_pointer(0, 6)
        mgr.take(3, [], 0)
        mgr.recover(older, on_commit, on_resolve)
        assert resolved == [5, 6] and committed == [5, 6]


class TestRecovery:
    def test_recover_restores_maps_and_keeps_own_checkpoint(self):
        mgr, maps, rc = _manager()
        table = maps[RegClass.INT]
        table.set_pointer(0, 5)
        ckpt = mgr.take(1, [], 0)
        table.set_pointer(0, 6)
        younger = mgr.take(2, [], 0)
        table.set_pointer(0, 7)
        mgr.recover(ckpt)
        assert table.pointer_of(0) == 5
        assert len(mgr) == 1  # `younger` discarded, `ckpt` kept
        assert rc[RegClass.INT].checkpoint_refs(6) == 0
        assert rc[RegClass.INT].er_checkpoint_refs(6) == 0
        assert rc[RegClass.INT].checkpoint_refs(5) == 1

    def test_recover_to_youngest_discards_nothing(self):
        mgr, maps, _ = _manager()
        maps[RegClass.INT].set_pointer(0, 5)
        a = mgr.take(1, [], 0)
        b = mgr.take(2, [], 0)
        mgr.recover(b)
        assert len(mgr) == 2


class TestLazyPatching:
    def test_patch_rewrites_stale_pointers(self):
        mgr, maps, rc = _manager()
        table = maps[RegClass.INT]
        table.set_pointer(0, 5)
        ckpt = mgr.take(1, [], 0)
        patched = mgr.patch_inlined(RegClass.INT, 5, 42)
        assert patched == 1
        modes, values = ckpt.snapshots[RegClass.INT]
        assert modes[0] == int(EntryMode.IMMEDIATE)
        assert values[0] == 42
        assert rc[RegClass.INT].checkpoint_refs(5) == 0
        assert rc[RegClass.INT].er_checkpoint_refs(5) == 0

    def test_patch_spans_all_checkpoints(self):
        mgr, maps, _ = _manager()
        table = maps[RegClass.INT]
        table.set_pointer(0, 5)
        table.set_pointer(1, 5)  # two logical regs, same preg snapshot? no:
        # a physical register maps from one logical register at a time in
        # practice, but the patch walks every entry regardless.
        mgr.take(1, [], 0)
        mgr.take(2, [], 0)
        assert mgr.patch_inlined(RegClass.INT, 5, 3) == 4
        assert mgr.patches_applied == 4

    def test_clear_releases_all(self):
        mgr, maps, rc = _manager()
        maps[RegClass.INT].set_pointer(0, 5)
        mgr.take(1, [], 0)
        mgr.take(2, [], 0)
        mgr.clear()
        rc[RegClass.INT].assert_clean()
        assert len(mgr) == 0
