"""The runner's per-trace cell memo (``Trace.cell_stats``).

A plain cell — no checkpointing, no cycle hook — is a pure function of
its resolved config, trace and cycle limit, so ``run_one`` simulates it
once per trace object and copies the stored stats for every repeat.
"""

import sys
import threading

import pytest

from repro.core.machine import Machine, SimulationError
from repro.experiments.runner import (
    RunSpec,
    TraceCache,
    _simulate_cell,
    run_one,
)


@pytest.fixture
def runs(monkeypatch):
    """Counts ``Machine.run`` calls."""
    calls = []
    original = Machine.run

    def counted(self, *args, **kwargs):
        calls.append(self.cfg)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Machine, "run", counted)
    return calls


def _spec(**overrides):
    return RunSpec(length=200, warmup=500, seed=3, **overrides)


def test_repeat_is_a_copy_not_a_simulation(runs):
    traces = TraceCache()
    first = run_one("gzip", "PRI+ER", 4, _spec(), traces)
    expected = first.to_dict()
    assert len(runs) == 1
    second = run_one("gzip", "PRI+ER", 4, _spec(), traces)
    assert len(runs) == 1
    assert second == first and second is not first
    # Results never share mutable state with the memo or each other.
    for stats in (first, second):
        stats.cycles += 1000
        stats.occupancy_sum["int"] = -1
        stats.lifetimes["int"].releases = -1
    third = run_one("gzip", "PRI+ER", 4, _spec(), traces)
    assert len(runs) == 1
    assert third.to_dict() == expected


def test_other_machines_and_limits_get_their_own_entries(runs):
    traces = TraceCache()
    run_one("gzip", "base", 4, _spec(), traces)
    run_one("gzip", "base", 4, _spec(max_cycles=10_000), traces)
    run_one("gzip", "base", 4, _spec(audit=True), traces)
    run_one("gzip", "base", 8, _spec(), traces)
    run_one("gzip", "ER", 4, _spec(), traces)
    assert len(runs) == 5
    assert len(traces.get("gzip", _spec()).cell_stats) == 5
    for args in (("base", 4, _spec()), ("base", 4, _spec(max_cycles=10_000)),
                 ("base", 4, _spec(audit=True))):
        run_one("gzip", *args, traces=traces)
    assert len(runs) == 5


def test_watchdog_hit_raises_the_same_error(runs):
    traces = TraceCache()
    spec = _spec(max_cycles=40)
    messages = []
    for _ in range(2):
        with pytest.raises(SimulationError, match="cycle-limit watchdog") as err:
            run_one("gzip", "base", 4, spec, traces)
        messages.append(str(err.value))
    assert len(runs) == 1
    assert messages[0] == messages[1]
    assert "gzip/base committed only" in messages[0]


def test_checkpointed_and_hooked_cells_always_simulate(runs, tmp_path):
    traces = TraceCache()
    checkpointed = _spec(checkpoint_every=50, checkpoint_dir=str(tmp_path))
    reference = run_one("gzip", "base", 4, checkpointed, traces)
    run_one("gzip", "base", 4, checkpointed, traces)
    assert len(runs) == 2
    hooked = _spec(checkpoint_dir=str(tmp_path))
    for _ in range(2):
        stats = _simulate_cell("gzip", "base", 4, hooked, traces,
                               cycle_hook=lambda machine: None)
        assert stats == reference
    assert len(runs) == 4
    # Nothing was memoized, so the first plain cell still simulates.
    assert traces.get("gzip", _spec()).cell_stats == {}
    assert run_one("gzip", "base", 4, _spec(), traces) == reference
    assert len(runs) == 5


def test_fresh_copy_starts_with_an_empty_memo(runs):
    traces = TraceCache()
    run_one("gzip", "base", 4, _spec(), traces)
    trace = traces.get("gzip", _spec())
    assert trace.cell_stats
    assert trace.fresh_copy().cell_stats == {}


def test_threads_sharing_a_trace_get_equal_independent_results():
    """Threads that miss together each simulate and store equal stats (a
    dict store is atomic); every caller gets its own copy."""
    traces = TraceCache()
    trace = traces.get("gzip", _spec())  # generated once, before racing
    expected = run_one("gzip", "PRI+ER", 4, _spec(), TraceCache())
    results, errors = [], []

    def cell():
        try:
            results.append(run_one("gzip", "PRI+ER", 4, _spec(), traces))
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=cell) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert len(results) == 6 and all(r == expected for r in results)
    assert len({id(r) for r in results}) == 6
    assert list(trace.cell_stats.values()) == [expected]
