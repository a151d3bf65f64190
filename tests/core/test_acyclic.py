"""Machines are freed by reference counting.

No component of a :class:`Machine` may hold a bound method or closure of
the machine: that makes the machine (and the cache-set lists its warm
state copied in) a reference cycle, which only the cyclic garbage
collector can free.  In a ``--all`` run of several hundred machines,
those full collections cost seconds.  Each test drops a finished
machine and asserts that a collection under ``gc.DEBUG_SAVEALL`` finds
nothing to collect.
"""

import pytest

from repro.config import four_wide
from repro.core.machine import Machine
from repro.experiments.runner import SCHEMES
from repro.workloads import generate_trace


@pytest.fixture(scope="module")
def trace():
    return generate_trace("gzip", 300, seed=1, warmup=500)


@pytest.mark.parametrize("checked", [False, True], ids=["plain", "audit+oracle"])
@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_scheme_machine_is_acyclic(trace, scheme, checked, cyclic_garbage):
    config = SCHEMES[scheme](four_wide())
    if checked:
        config = config.with_audit().with_oracle()

    def run():
        assert Machine(config).run(trace).committed == len(trace)

    assert cyclic_garbage(run) == 0


def test_virtual_physical_machine_is_acyclic(trace, cyclic_garbage):
    config = four_wide().with_pri().with_virtual_physical().with_audit()

    def run():
        assert Machine(config).run(trace).committed == len(trace)

    assert cyclic_garbage(run) == 0
