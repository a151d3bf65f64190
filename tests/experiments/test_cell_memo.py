"""Cells that share a trace object.

``run_one`` keeps no results: every call simulates, and a table or
figure run asks for each distinct cell once (see ``run_cells``).  What
cells on one trace share is its warm state (``Trace.warm_states``),
which never leaks into, or aliases between, their results.
"""

import sys
import threading

import pytest

import repro.experiments.runner as runner
from repro.core.machine import Machine, SimulationError
from repro.experiments.runner import RunSpec, TraceCache, run_one


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


def test_watchdog_hit_raises_the_same_error(runs):
    traces = TraceCache()
    spec = _spec(max_cycles=40)
    messages = []
    for _ in range(2):
        with pytest.raises(SimulationError, match="cycle-limit watchdog") as err:
            run_one("gzip", "base", 4, spec, traces)
        messages.append(str(err.value))
    assert len(runs) == 2
    assert messages[0] == messages[1]
    assert "gzip/base committed only" in messages[0]


def test_chaos_hooked_cells_always_simulate(runs, monkeypatch):
    """A cell run with a cycle hook (as a fault-injection test attaches
    one; it turns off the quiet-cycle fast-forward) still simulates on
    every call and gets the unhooked cell's statistics."""
    traces = TraceCache()
    reference = run_one("gzip", "base", 4, _spec(), traces)
    seen = []

    class Hooked(Machine):
        def __init__(self, config):
            super().__init__(config)
            self.add_cycle_hook(lambda m: seen.append(m.now))

    with monkeypatch.context() as patch:
        patch.setattr(runner, "Machine", Hooked)
        for _ in range(2):
            assert run_one("gzip", "base", 4, _spec(), traces) == reference
    assert len(runs) == 3
    assert seen
    assert run_one("gzip", "base", 4, _spec(), traces) == reference
    assert len(runs) == 4


def test_fresh_copy_starts_with_an_empty_memo(runs):
    traces = TraceCache()
    run_one("gzip", "base", 4, _spec(), traces)
    trace = traces.get("gzip", _spec())
    assert trace.warm_states
    assert trace.fresh_copy().warm_states == {}


def test_threads_sharing_a_trace_get_equal_independent_results():
    """Threads running one cell on a shared trace each simulate from the
    trace's one warm state and get equal results, each its own object."""
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
    assert len(trace.warm_states) == 1
