"""Differential suite: every lane of a batched column must be
bit-identical to the scalar backend run of the same (config, trace).

This is the vector backend's correctness contract — ``SimStats`` deep
equality (``to_dict()``), not just headline IPC — exercised across the
reclamation schemes, register-exhaustion sizes (where the engine must
fork), a mispredict-heavy trace, the checkers, and fuzz-sampled machine
shapes from :mod:`repro.oracle.fuzz`.
"""

import dataclasses

import pytest

from repro.config import four_wide
from repro.core.machine import Machine, simulate
from repro.experiments.runner import SCHEMES
from repro.oracle.fuzz import sample_spec
from repro.vector import Lane, run_column
from repro.workloads import generate_trace

#: Sweep sizes per class: 40/48 exhaust the PRF on these traces (the
#: engine must fork mid-run), 96 stays comfortably unshared-stall-free.
SIZES = (40, 48, 64, 96)

#: One scheme per reclamation family (the full registry runs in the
#: fuzz-shape test below; these three get the size sweep).
FAMILIES = ("base", "ER", "PRI-refcount+ckptcount")


@pytest.fixture(scope="module")
def gzip_small():
    return generate_trace("gzip", 400, seed=5, warmup=800)


@pytest.fixture(scope="module")
def gcc_small():
    """gcc is the mispredict-heavy profile: squash/recovery interleaves
    with capacity stalls, the hardest ordering for the fork point."""
    return generate_trace("gcc", 400, seed=11, warmup=800)


def _sweep_lanes(scheme, trace, sizes=SIZES):
    cfg = SCHEMES[scheme](four_wide())
    return [Lane(key=str(size), config=cfg.with_phys_regs(size), trace=trace)
            for size in sizes]


def _assert_lanes_match_scalar(lanes, outcome, max_cycles=None):
    for lane in lanes:
        result = outcome.results[lane.key]
        assert result.error is None, (lane.key, result.error)
        want = simulate(lane.config, lane.trace, max_cycles=max_cycles)
        assert result.stats.to_dict() == want.to_dict(), lane.key


# ======================================================= the size sweep


@pytest.mark.parametrize("scheme", FAMILIES)
def test_size_sweep_bit_identical(scheme, gzip_small):
    lanes = _sweep_lanes(scheme, gzip_small)
    outcome = run_column(lanes)
    # One shape, componentwise-ordered sizes: a single coherence group
    # that must fork at the exhaustion sizes, or the test proves nothing.
    assert outcome.groups == 1
    assert outcome.forks >= 1
    _assert_lanes_match_scalar(lanes, outcome)


@pytest.mark.parametrize("scheme", FAMILIES)
def test_mispredict_heavy_sweep_bit_identical(scheme, gcc_small):
    lanes = _sweep_lanes(scheme, gcc_small)
    outcome = run_column(lanes)
    _assert_lanes_match_scalar(lanes, outcome)


def test_exhaustion_lane_actually_stalled(gzip_small):
    """Guard the premise: the smallest sweep size really exhausts the
    PRF (otherwise the fork path went untested above)."""
    cfg = four_wide().with_phys_regs(SIZES[0])
    stats = Machine(cfg).run(gzip_small)
    assert stats.rename_stall_regs > 0


def test_sharing_actually_happened(gzip_small):
    """The batch must simulate fewer machine-cycles than the scalar
    sweep pays — that gap is the whole point of the backend."""
    lanes = _sweep_lanes("base", gzip_small)
    outcome = run_column(lanes)
    scalar_total = sum(
        simulate(lane.config, lane.trace).cycles for lane in lanes
    )
    assert outcome.cycles_simulated < scalar_total


# =================================================== checkers ride along


def test_audit_enabled_column_bit_identical(gzip_small):
    """The invariant auditor proves checkpointed pointers against the
    generation stamps each checkpoint took from its machine's register
    files; run it on a forking column."""
    cfg = SCHEMES["PRI-refcount+ckptcount"](four_wide()).with_audit(
        interval=64)
    lanes = [Lane(key=str(size), config=cfg.with_phys_regs(size),
                  trace=gzip_small) for size in SIZES]
    outcome = run_column(lanes)
    assert outcome.forks >= 1
    _assert_lanes_match_scalar(lanes, outcome)


def test_fork_stamps_checkpoints_from_its_own_register_files(gzip_small):
    """A fork is a deep copy of its donor: the copy's checkpoint manager
    must stamp generations from the copy's register files, never the
    donor's."""
    cfg = SCHEMES["PRI+ER"](four_wide()).with_audit(interval=64)
    lanes = [Lane(key=str(size), config=cfg.with_phys_regs(size),
                  trace=gzip_small) for size in SIZES]
    machines = {}
    seen = set()
    stamped = []

    def hook(m):
        machines[id(m)] = m
        assert m.ckpts.regfiles is m.rf
        for ckpt in m.ckpts.checkpoints():
            if ckpt in seen:
                continue
            # Taken this cycle: its pinned registers cannot have been
            # reallocated since, so the stamps equal the live generations.
            seen.add(ckpt)
            for cls, rf in m.rf.items():
                for _, preg, gen in ckpt.pointer_items(cls):
                    assert gen == rf.gen[preg]
                    stamped.append(gen)

    outcome = run_column(lanes, cycle_hook=hook)
    assert outcome.forks >= 1 and len(machines) == outcome.forks + 1
    assert stamped
    regfiles = {id(rf) for m in machines.values() for rf in m.rf.values()}
    assert len(regfiles) == 2 * len(machines)
    _assert_lanes_match_scalar(lanes, outcome)


def test_oracle_enabled_column_bit_identical(gzip_small):
    cfg = four_wide().with_oracle(interval=128)
    lanes = [Lane(key=str(size), config=cfg.with_phys_regs(size),
                  trace=gzip_small) for size in (48, 96)]
    outcome = run_column(lanes)
    _assert_lanes_match_scalar(lanes, outcome)


# ========================================================= error parity


def test_max_cycles_truncation_matches_scalar(gzip_small):
    """Hitting the cycle limit must leave each lane with exactly the
    stats a scalar ``simulate(..., max_cycles=N)`` returns."""
    lanes = _sweep_lanes("base", gzip_small, sizes=(48, 96))
    budget = 200
    outcome = run_column(lanes, max_cycles=budget)
    _assert_lanes_match_scalar(lanes, outcome, max_cycles=budget)
    for lane in lanes:
        assert outcome.results[lane.key].stats.committed < len(gzip_small)


def test_empty_trace_matches_scalar():
    trace = generate_trace("gzip", 0, seed=1, warmup=0)
    lanes = [Lane(key="empty", config=four_wide(), trace=trace)]
    outcome = run_column(lanes)
    want = simulate(four_wide(), trace)
    assert outcome.results["empty"].stats.to_dict() == want.to_dict()


# ============================================== full registry, one size


def test_every_scheme_bit_identical_singleton(gzip_small):
    """All registry schemes (including VP-based ones that run as
    unsharable singleton groups) through one column."""
    lanes = [Lane(key=name, config=SCHEMES[name](four_wide()),
                  trace=gzip_small) for name in sorted(SCHEMES)]
    outcome = run_column(lanes)
    _assert_lanes_match_scalar(lanes, outcome)


# ========================================================== fuzz shapes


@pytest.mark.parametrize("seed", range(8))
def test_fuzz_sampled_shapes_bit_identical(seed):
    """Machine shapes drawn from the oracle fuzzer's generator (minus
    virtual-physical, which the planner runs as singletons anyway and
    the capacity-pair test here extends componentwise)."""
    spec = sample_spec(seed, benchmarks=("gzip", "gcc", "mesa"))
    spec = dataclasses.replace(
        spec, virtual_physical=False, length=300, warmup=600,
        oracle_interval=512, audit_interval=1024,
    )
    trace = generate_trace(spec.benchmark, spec.length,
                           seed=spec.trace_seed, warmup=spec.warmup)
    small = spec.config()
    big = dataclasses.replace(
        small, int_phys_regs=small.int_phys_regs + 32,
        fp_phys_regs=small.fp_phys_regs + 32,
    )
    lanes = [Lane(key="small", config=small, trace=trace),
             Lane(key="big", config=big, trace=trace)]
    outcome = run_column(lanes)
    assert outcome.groups == 1
    _assert_lanes_match_scalar(lanes, outcome)
