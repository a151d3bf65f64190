"""The idle-cycle fast-forward changes no result.

``Machine._run_loop`` jumps over *quiet* cycles (see
``Machine._quiet_until``) unless something watches individual cycles.
A cycle hook that does nothing forces the loop to step every cycle, so
a run with one is the reference a run without one must equal, counter
for counter.
"""

import dataclasses

import pytest

from repro.config import CheckpointPolicy, WarPolicy
from repro.core.machine import Machine, SimulationError
from repro.experiments.runner import (
    FP_BENCHMARKS,
    INT_BENCHMARKS,
    SCHEMES,
    RunSpec,
    TraceCache,
    resolve_config,
)

_SPEC = RunSpec(length=120, warmup=1500, seed=3)

#: Configurations beyond the eight schemes, applied to the 4-wide base.
_VARIANTS = {
    "virtual-physical": lambda c: c.with_pri().with_virtual_physical(),
    "PRI-replay": lambda c: c.with_pri(WarPolicy.REPLAY,
                                       CheckpointPolicy.CKPTCOUNT),
    "PRI-load-immediate": lambda c: c.with_pri(inline_on_load_immediate=True),
}


@pytest.fixture(scope="module")
def traces():
    return TraceCache()


def _noop(machine):
    pass


def _run(config, trace, stepped, max_cycles=None):
    machine = Machine(config)
    if stepped:
        machine.add_cycle_hook(_noop)
    return machine.run(trace, max_cycles=max_cycles).to_dict()


@pytest.mark.parametrize("bench", INT_BENCHMARKS + FP_BENCHMARKS)
def test_skipping_equals_stepping(traces, bench):
    trace = traces.get(bench, _SPEC)
    configs = [resolve_config(scheme, width, _SPEC)
               for width in (4, 8) for scheme in SCHEMES]
    configs += [variant(resolve_config("base", 4, _SPEC))
                for variant in _VARIANTS.values()]
    for config in configs:
        assert _run(config, trace, stepped=False) == \
            _run(config, trace, stepped=True), config.name


@pytest.mark.parametrize("bench", ["ammp", "mcf", "gzip"])
@pytest.mark.parametrize("max_cycles", [37, 400, 1234])
def test_cycle_limit_truncation_matches(traces, bench, max_cycles):
    trace = traces.get(bench, _SPEC)
    for scheme in ("base", "PRI-refcount+ckptcount", "ER"):
        config = resolve_config(scheme, 4, _SPEC)
        skipped = _run(config, trace, stepped=False, max_cycles=max_cycles)
        assert skipped == _run(config, trace, stepped=True,
                               max_cycles=max_cycles)
        assert skipped["cycles"] <= max_cycles


def _watchdog_message(config, trace, stepped):
    with pytest.raises(SimulationError, match="deadlock: no commit since") \
            as caught:
        _run(config, trace, stepped)
    return str(caught.value)


def test_watchdog_fires_identically(traces):
    """ammp stalls on memory for longer than a small watchdog allows;
    the skipping loop must stop at the same cycle with the same text."""
    trace = traces.get("ammp", _SPEC)
    config = dataclasses.replace(resolve_config("base", 4, _SPEC),
                                 deadlock_cycles=40)
    assert _watchdog_message(config, trace, stepped=False) == \
        _watchdog_message(config, trace, stepped=True)


def test_skipping_engages(traces, monkeypatch):
    """ammp's cycles are mostly quiet: without a hook the loop steps far
    fewer of them, and with one it steps every cycle."""
    calls = []
    commit = Machine._commit

    def counting_commit(self):
        calls.append(None)
        return commit(self)

    monkeypatch.setattr(Machine, "_commit", counting_commit)
    trace = traces.get("ammp", _SPEC)
    config = resolve_config("base", 4, _SPEC)
    skipped = Machine(config).run(trace)
    stepped_calls = len(calls)
    assert stepped_calls < skipped.cycles // 3

    calls.clear()
    machine = Machine(config)
    machine.add_cycle_hook(_noop)
    stepped = machine.run(trace)
    assert len(calls) == stepped.cycles == skipped.cycles
