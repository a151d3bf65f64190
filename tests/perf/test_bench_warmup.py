"""``repro.perf bench`` keeps measuring what its baselines measured:
with the per-trace warm-state memo, a shared trace would let every round
after the first skip the functional warmup, so each timed run gets a
fresh copy of the trace and does exactly one warmup."""

import pytest

from repro.core.machine import Machine
from repro.perf import run_bench

TINY_TRACE = {"benchmark": "gzip", "length": 120, "seed": 3, "warmup": 200}


def test_one_functional_warmup_per_timed_run(monkeypatch):
    pytest.importorskip("numpy")
    import repro.vector as vector

    warmed, runs, columns = [], [], []
    loop, run, run_column = (Machine._functional_warmup, Machine.run,
                             vector.run_column)

    def counted_warmup(self, trace):
        warmed.append(trace)
        return loop(self, trace)

    def counted_run(self, trace, *args, **kwargs):
        runs.append(trace)
        return run(self, trace, *args, **kwargs)

    def counted_column(lanes, *args, **kwargs):
        columns.append(lanes[0].trace)
        return run_column(lanes, *args, **kwargs)

    monkeypatch.setattr(Machine, "_functional_warmup", counted_warmup)
    monkeypatch.setattr(Machine, "run", counted_run)
    monkeypatch.setattr(vector, "run_column", counted_column)
    run_bench(rounds=2, trace_spec=TINY_TRACE, column_sizes=(40, 64))
    # Per config and round: one single run, a two-lane scalar sweep,
    # and one vector column.
    assert len(runs) == 2 * 2 * 3
    assert len(columns) == 2 * 2
    assert len(warmed) == len(runs) + len(columns)
    assert len({id(trace) for trace in warmed}) == len(warmed)
