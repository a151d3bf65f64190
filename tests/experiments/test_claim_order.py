"""The pool's claim order, as a pure function of what it has sent.

``claim_order`` ranks the pending cells so each parallel run builds
each trace about once: the groups already sent to this worker first,
then groups sent to no worker, then the rest.  It only ranks: a pending
cell is never dropped, so a worker never idles while work is left.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.experiments.pool import claim_order

# cell -> trace group: three groups of three cells.
_GROUPS = {f"{g}{i}": g for g in "abc" for i in range(3)}
_PENDING = sorted(_GROUPS)


def test_own_groups_then_untouched_then_the_rest():
    # This worker holds b; c was sent to another worker; a is untouched.
    order = claim_order(_PENDING, _GROUPS, held={"b"}, touched={"b", "c"})
    assert order == ["b0", "b1", "b2", "a0", "a1", "a2", "c0", "c1", "c2"]


def test_a_group_sent_elsewhere_comes_after_untouched_ones():
    order = claim_order(["a1", "a2", "b0"], _GROUPS, held=set(),
                        touched={"a"})
    assert order == ["b0", "a1", "a2"]


def test_unknown_group_comes_last():
    order = claim_order(["zz", "a0"], _GROUPS, held=set(), touched=set())
    assert order == ["a0", "zz"]


def test_a_worker_with_nothing_of_its_own_still_gets_every_cell():
    # Every group is busy and none is held: everything pending is still
    # offered (the steal), so the worker does not idle.
    order = claim_order(_PENDING, _GROUPS, held=set(), touched=set("abc"))
    assert order == _PENDING


@given(
    pending=st.sets(st.sampled_from(sorted(_GROUPS) + ["x0", "x1"])),
    held=st.sets(st.sampled_from("abc")),
    touched=st.sets(st.sampled_from("abc")),
)
def test_order_is_a_ranked_permutation_of_the_pending_cells(
        pending, held, touched):
    touched = touched | held  # a held group was sent, so it is touched
    pending = sorted(pending)
    order = claim_order(pending, _GROUPS, held, touched)
    assert sorted(order) == pending

    def rank(cell):
        group = _GROUPS.get(cell)
        if group in held:
            return 0
        return 1 if group is not None and group not in touched else 2

    ranks = [rank(cell) for cell in order]
    assert ranks == sorted(ranks)
