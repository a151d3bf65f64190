"""Shared fixtures for the test suite."""

import dataclasses
import gc

import pytest

from repro.config import eight_wide, four_wide
from repro.workloads import TraceBuilder, generate_trace


@pytest.fixture
def cfg4():
    """4-wide machine with a perfect I-cache: hand-built unit-test traces
    have no warmup prefix, so cold IL1 misses would swamp their timing."""
    return dataclasses.replace(four_wide(), perfect_icache=True)


@pytest.fixture
def cfg8():
    return dataclasses.replace(eight_wide(), perfect_icache=True)


@pytest.fixture
def cfg4_real():
    return four_wide()


@pytest.fixture
def cfg8_real():
    return eight_wide()


@pytest.fixture
def builder():
    return TraceBuilder()


@pytest.fixture(scope="session")
def gzip_trace():
    """A small real-profile trace, shared across tests for speed."""
    return generate_trace("gzip", 3000, seed=7, warmup=6000)


@pytest.fixture(scope="session")
def mcf_trace():
    return generate_trace("mcf", 2000, seed=7, warmup=4000)


@pytest.fixture(scope="session")
def swim_trace():
    return generate_trace("swim", 2500, seed=7, warmup=5000)


def _cyclic_garbage(make_and_drop) -> int:
    """Objects the cyclic collector finds after ``make_and_drop()``
    returns (everything it built is unreachable by then)."""
    debug = gc.get_debug()
    gc.collect()
    try:
        gc.set_debug(debug | gc.DEBUG_SAVEALL)
        make_and_drop()
        found = gc.collect()
    finally:
        gc.set_debug(debug)
        gc.garbage.clear()
    return found


@pytest.fixture
def cyclic_garbage():
    """:func:`_cyclic_garbage`: a count of 0 means everything the callable
    built was freed by reference counting alone."""
    return _cyclic_garbage
