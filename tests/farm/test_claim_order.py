"""A worker's claim order, as a pure function of what it sees on disk.

``claim_order`` ranks the pending cells so each parallel run builds
each trace about once: the worker's own traces first, then traces no
worker has touched, then the rest.  It only ranks: a claimable cell is
never dropped, so a worker never sleeps while work is left.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.farm.worker import claim_order

# cid -> trace group: three groups of three cells.
_GROUPS = {f"{g}{i}": g for g in "abc" for i in range(3)}
_PENDING = sorted(_GROUPS)


def test_own_groups_then_untouched_then_the_rest():
    # This worker holds b; c has a leased cell and a is untouched.
    order = claim_order(_PENDING, _GROUPS, held={"b"}, leased={"c0"},
                        done=set())
    assert order == ["b0", "b1", "b2", "a0", "a1", "a2", "c1", "c2"]


def test_a_done_cell_marks_its_group_touched():
    order = claim_order(["a1", "a2", "b0"], _GROUPS, held=set(),
                        leased=set(), done={"a0"})
    assert order == ["b0", "a1", "a2"]


def test_leased_cells_are_left_out():
    order = claim_order(_PENDING, _GROUPS, held={"a", "b", "c"},
                        leased={"a0", "b1"}, done=set())
    assert set(order) == set(_PENDING) - {"a0", "b1"}


def test_unknown_group_comes_last():
    order = claim_order(["zz", "a0"], _GROUPS, held=set(), leased=set(),
                        done=set())
    assert order == ["a0", "zz"]


def test_a_worker_with_nothing_of_its_own_still_gets_every_cell():
    # Every group is busy and none is held: everything unleased is still
    # offered (the steal), so the worker does not sleep.
    order = claim_order(_PENDING, _GROUPS, held=set(),
                        leased={"a0", "b0", "c0"}, done=set())
    assert sorted(order) == ["a1", "a2", "b1", "b2", "c1", "c2"]


@given(
    pending=st.sets(st.sampled_from(sorted(_GROUPS) + ["x0", "x1"])),
    held=st.sets(st.sampled_from("abc")),
    leased=st.sets(st.sampled_from(sorted(_GROUPS))),
    done=st.sets(st.sampled_from(sorted(_GROUPS))),
)
def test_order_is_a_ranked_permutation_of_the_claimable_cells(
        pending, held, leased, done):
    pending = sorted(pending - done)
    order = claim_order(pending, _GROUPS, held, leased, done)
    assert sorted(order) == sorted(c for c in pending if c not in leased)
    touched = {_GROUPS[c] for c in leased | done}

    def rank(cid):
        group = _GROUPS.get(cid)
        if group in held:
            return 0
        return 1 if group is not None and group not in touched else 2

    ranks = [rank(cid) for cid in order]
    assert ranks == sorted(ranks)
