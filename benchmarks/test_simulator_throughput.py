"""Simulator performance: instructions simulated per second.

Unlike the figure benchmarks (which time a whole experiment once), this
measures the cycle-level core itself so performance regressions in the
simulator are visible.  Multiple rounds are meaningful here.
"""

import pytest

from repro.config import four_wide
from repro.core.machine import Machine
from repro.workloads import generate_trace


@pytest.fixture(scope="module")
def throughput_trace():
    return generate_trace("gzip", 2000, seed=5, warmup=4000)


def _fresh_trace(trace):
    """pedantic ``setup``: each round simulates its own copy of the
    trace, so every timed run does the full functional warmup instead of
    installing the warm state an earlier round left on a shared trace."""
    return lambda: ((trace.fresh_copy(),), {})


def test_base_machine_throughput(benchmark, throughput_trace):
    def run(trace):
        return Machine(four_wide()).run(trace)

    stats = benchmark.pedantic(run, setup=_fresh_trace(throughput_trace),
                               rounds=3, iterations=1)
    assert stats.committed == 2000


def test_pri_machine_throughput(benchmark, throughput_trace):
    def run(trace):
        return Machine(four_wide().with_pri()).run(trace)

    stats = benchmark.pedantic(run, setup=_fresh_trace(throughput_trace),
                               rounds=3, iterations=1)
    assert stats.committed == 2000


def test_trace_generation_throughput(benchmark):
    def run():
        return generate_trace("gcc", 5000, seed=9, warmup=0)

    trace = benchmark.pedantic(run, rounds=3, iterations=1)
    assert len(trace) == 5000
