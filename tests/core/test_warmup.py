"""Warmup (fast-forward stand-in) semantics, and the per-trace memo
that runs the functional warmup once per (trace, geometry)."""

import dataclasses
import hashlib
import json
import sys
import threading

import pytest

from repro.config import CacheConfig, eight_wide, four_wide
from repro.core.machine import Machine, simulate
from repro.experiments.runner import RunSpec, resolve_config
from repro.workloads import SPEC_FP, SPEC_INT, generate_trace


def test_warmup_trains_predictors_and_caches():
    cold = generate_trace("gcc", 1500, seed=4, warmup=0)
    warm = generate_trace("gcc", 1500, seed=4, warmup=25000)
    cold_stats = simulate(four_wide(), cold)
    warm_stats = simulate(four_wide(), warm)
    assert warm_stats.il1_miss_rate < cold_stats.il1_miss_rate
    assert warm_stats.ipc > cold_stats.ipc


def test_warmup_counters_reset():
    """Warmup accesses must not pollute the timed statistics."""
    trace = generate_trace("gzip", 500, seed=4, warmup=5000)
    m = Machine(four_wide())
    m.run(trace)
    # The warmup pass touched ~5000 ops (~1500 data accesses, ~700 branch
    # predictions); the timed counters must reflect only the 500-op
    # region (plus wrong-path refetch inflation).
    assert m.stats.committed == 500
    timed_mem_ops = sum(1 for op in trace if op.mem_addr is not None)
    assert m.memory.dl1.accesses < 3 * timed_mem_ops
    assert m.branch_unit.predictions < 5000 * 0.14


def test_warmup_is_deterministic():
    trace = generate_trace("gzip", 800, seed=5, warmup=3000)
    a = simulate(four_wide(), trace)
    b = simulate(four_wide(), trace)
    assert a.cycles == b.cycles


# ---------------------------------------------------------------------------
# One functional warmup per (trace object, branch geometry, memory geometry)
# ---------------------------------------------------------------------------

def _warm_state(machine):
    return {"branch": machine.branch_unit.state(),
            "memory": machine.memory.state()}


def _live_lists(machine):
    """ids of every mutable list a running machine trains in place: the
    predictor tables and RAS, each BTB's and cache's set list, and every
    set it has copied out of the warm image to write to."""
    unit = machine.branch_unit
    lists = [unit.predictor.bimodal.table.entries,
             unit.predictor.gshare.table.entries,
             unit.predictor.selector.entries,
             unit.btb._sets, unit.ras._stack]
    lists += unit.btb._sets
    for cache in (machine.memory.il1, machine.memory.dl1, machine.memory.l2):
        lists.append(cache._sets)
        lists += cache._sets
    return {id(x) for x in lists if isinstance(x, list)}


def _memo_lists(obj, out=None):
    out = set() if out is None else out
    if isinstance(obj, dict):
        for value in obj.values():
            _memo_lists(value, out)
    elif isinstance(obj, (list, tuple)):
        if isinstance(obj, list):
            out.add(id(obj))
        for value in obj:
            _memo_lists(value, out)
    return out


def _assert_immutable_image(memo):
    """Every set and BTB entry of every warm image is a tuple, and the
    image holds no list anywhere."""
    assert _memo_lists(memo) == set()
    for warm in memo.values():
        btb = warm["branch"]["btb"]
        assert type(btb) is tuple
        for entries in btb:
            assert type(entries) is tuple
            assert all(type(entry) is tuple for entry in entries)
        for level in warm["memory"].values():
            assert type(level["sets"]) is tuple
            assert all(type(tags) is tuple for tags in level["sets"])


def _assert_unshared(machines):
    """No machine holds a list another machine holds."""
    seen = set()
    for machine in machines:
        live = _live_lists(machine)
        assert not live & seen
        seen |= live


@pytest.fixture
def count_warmups(monkeypatch):
    """Counts runs of the functional warmup loop."""
    calls = []
    loop = Machine._functional_warmup

    def counted(self, trace):
        calls.append(trace)
        return loop(self, trace)

    monkeypatch.setattr(Machine, "_functional_warmup", counted)
    return calls


@pytest.mark.parametrize("profile", [p.name for p in SPEC_INT + SPEC_FP])
def test_memo_install_equals_loop(profile, count_warmups):
    trace = generate_trace(profile, 50, seed=3, warmup=1200)
    for config in (four_wide(), eight_wide()):
        machine = Machine(config)
        machine.warmup(trace)
        reference = Machine(config)
        reference.warmup(generate_trace(profile, 50, seed=3, warmup=1200))
        assert _warm_state(machine) == _warm_state(reference)
        assert not _live_lists(machine) & _memo_lists(trace.warm_states)
    # Both Table 1 widths share one geometry: the eight-wide machine
    # installed the four-wide machine's warm state.
    assert count_warmups.count(trace) == 1
    assert len(trace.warm_states) == 1


def test_each_geometry_gets_its_own_warmup(count_warmups):
    trace = generate_trace("gzip", 50, seed=3, warmup=1500)
    base = four_wide()
    small_l2 = dataclasses.replace(base, memory=dataclasses.replace(
        base.memory, l2=CacheConfig(size=64 * 1024, assoc=4, line=64,
                                    latency=12)))
    short_history = dataclasses.replace(base, branch=dataclasses.replace(
        base.branch, history_bits=8))
    for config in (base, small_l2, short_history, base, small_l2,
                   short_history):
        machine = Machine(config)
        machine.warmup(trace)
        reference = Machine(config)
        reference.warmup(trace.fresh_copy())
        assert _warm_state(machine) == _warm_state(reference)
    assert count_warmups.count(trace) == 3
    assert len(trace.warm_states) == 3


#: One scheme per reclamation policy: conventional, PRI, early release,
#: and the unlimited register file.
_DIFFERENTIAL_SCHEMES = ("base", "PRI-refcount+ckptcount", "ER", "inf")


def test_checked_run_leaves_memo_unchanged():
    """Base, PRI, ER and inf machines, audited and oracle-checked, all
    start from one shared image, write only to sets they copied out of
    it, and leave it equal to the functional loop's state."""
    trace = generate_trace("gzip", 400, seed=4, warmup=2000)
    base = four_wide()
    configs = [resolve_config(scheme, 4, RunSpec())
               for scheme in _DIFFERENTIAL_SCHEMES]
    reference = Machine(base)
    reference.warmup(trace.fresh_copy())
    expected = {(base.branch, base.memory): _warm_state(reference)}
    machines = []
    for _ in range(2):  # the machine that fills the memo, then ones that install it
        for config in configs:
            checked = config.with_audit(interval=32).with_oracle(interval=32)
            machine = Machine(checked)
            stats = machine.run(trace)
            assert stats.audits > 0 and stats.oracle_commits == len(trace)
            assert trace.warm_states == expected
            _assert_immutable_image(trace.warm_states)
            machines.append(machine)
    _assert_unshared(machines)
    for config in configs:
        assert (simulate(config, trace).to_dict()
                == simulate(config, trace.fresh_copy()).to_dict())
    assert trace.warm_states == expected


@pytest.mark.parametrize("profile", [p.name for p in SPEC_INT + SPEC_FP])
def test_shared_image_runs_equal_fresh_runs(profile):
    """Every scheme at both widths on a trace whose memo is filled
    gives the statistics of a run that does its own functional warmup."""
    trace = generate_trace(profile, 60, seed=2, warmup=1500)
    spec = RunSpec(length=60, warmup=1500, seed=2)
    for width in (4, 8):
        for scheme in _DIFFERENTIAL_SCHEMES:
            config = resolve_config(scheme, width, spec)
            assert (simulate(config, trace).to_dict()
                    == simulate(config, trace.fresh_copy()).to_dict())
    _assert_immutable_image(trace.warm_states)


def test_vector_column_on_warmed_trace_matches_scalar():
    pytest.importorskip("numpy")
    from repro.vector import Lane, run_column

    trace = generate_trace("gzip", 400, seed=4, warmup=2000)
    simulate(four_wide(), trace)  # fills the memo
    assert trace.warm_states
    configs = {str(size): four_wide().with_phys_regs(size)
               for size in (40, 48, 64, 128)}
    outcome = run_column([Lane(key=key, config=config, trace=trace)
                          for key, config in configs.items()])
    for key, config in configs.items():
        assert (outcome.results[key].stats.to_dict()
                == simulate(config, trace.fresh_copy()).to_dict())


#: sha256 of the statistics, branch-unit state and memory state (see
#: :func:`_warm_state`) at cycle 300 of the four-wide PRI machine on
#: gzip (600 ops, seed 7, 3000-op warmup), as JSON with sorted keys;
#: recorded with the snapshot pin this replaces still green.
_CYCLE300_DIGEST = (
    "aca5267f401014e2426131bef85e9e47436d74f9f3fb8908f74ea8630901b66d")


def test_cycle300_state_pinned(count_warmups):
    trace = generate_trace("gzip", 600, seed=7, warmup=3000)
    digests = []
    for _ in range(2):  # the functional warmup, then the memo install
        machine = Machine(four_wide().with_pri())

        def hook(m):
            if m.now == 300:
                image = {"stats": m.stats.to_dict(), **_warm_state(m)}
                digests.append(hashlib.sha256(json.dumps(
                    image, sort_keys=True).encode()).hexdigest())

        machine.add_cycle_hook(hook)
        machine.run(trace)
    assert count_warmups.count(trace) == 1
    assert digests == [_CYCLE300_DIGEST] * 2


def test_threads_sharing_a_trace_get_equal_unaliased_state():
    """The serve executor can warm one trace from several threads at
    once: whichever thread's store wins, every machine must start from
    the loop's state, and running them must write only to lists of
    their own."""
    trace = generate_trace("gcc", 50, seed=6, warmup=1500)
    reference = Machine(four_wide())
    reference.warmup(trace.fresh_copy())
    expected = _warm_state(reference)
    machines = [Machine(four_wide()) for _ in range(6)]
    errors = []

    def warm(machine):
        try:
            machine.warmup(trace)
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=warm, args=(m,)) for m in machines]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    memo = {(four_wide().branch, four_wide().memory): expected}
    assert trace.warm_states == memo
    _assert_immutable_image(trace.warm_states)
    for machine in machines:
        assert _warm_state(machine) == expected
    reference_stats = simulate(four_wide(), trace.fresh_copy()).to_dict()
    for machine in machines:
        assert machine.run(trace).to_dict() == reference_stats
    assert trace.warm_states == memo
    _assert_unshared(machines)
