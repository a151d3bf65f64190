"""Traces are freed by reference counting, and cached traces are frozen.

:meth:`TraceCache.get` moves each new trace into the cyclic collector's
permanent generation (``gc.freeze``), so full collections stop walking
its tens of thousands of objects.  Frozen objects are never collected by
the cyclic collector, so that is only safe while traces and the
generator that builds them hold no reference cycle: an evicted trace
must then die by reference counting alone.
"""

import gc
import weakref

import pytest

import repro.experiments.runner as runner
from repro.experiments.runner import RunSpec, TraceCache
from repro.workloads import TraceGenerator, generate_trace, get_profile

_SPEC = RunSpec(length=200, warmup=300, seed=1)


@pytest.fixture(autouse=True)
def _unfreeze():
    """Hand the objects these tests froze back to the collector."""
    yield
    gc.unfreeze()


@pytest.mark.parametrize("name", ["gzip", "swim"])
def test_generating_and_dropping_a_trace_leaves_no_cycles(name, cyclic_garbage):
    def run():
        trace = generate_trace(name, 200, seed=1, warmup=300)
        assert len(trace) == 200 and len(trace.warmup_ops) == 300

    assert cyclic_garbage(run) == 0


def test_generator_leaves_no_cycles(cyclic_garbage):
    def run():
        generator = TraceGenerator(get_profile("mcf"), seed=3)
        generator.generate(100, warmup=100)
        generator.next_op()

    assert cyclic_garbage(run) == 0


def _tracked(ops):
    """How many of ``ops`` sit in the collector's three generations
    (``gc.get_objects`` does not list the frozen ones)."""
    ids = {id(op) for op in ops}
    return sum(id(obj) in ids for obj in gc.get_objects())


def test_cache_get_freezes_the_trace():
    # The control: a trace built outside the cache is walked by every
    # full collection.
    loose = generate_trace("gzip", _SPEC.length, seed=_SPEC.seed,
                           warmup=_SPEC.warmup)
    assert _tracked(loose.ops) == len(loose.ops)
    cache = TraceCache()
    trace = cache.get("gzip", _SPEC)
    assert _tracked(trace.ops) == 0
    # A hit generates and freezes nothing.
    frozen = gc.get_freeze_count()
    assert cache.get("gzip", _SPEC) is trace
    assert gc.get_freeze_count() == frozen


def test_evicted_trace_is_freed_without_the_collector(monkeypatch):
    monkeypatch.setattr(runner, "TRACE_CACHE_LIMIT", 2)
    cache = TraceCache()
    first = weakref.ref(cache.get("gzip", _SPEC))
    enabled = gc.isenabled()
    gc.disable()
    try:
        cache.get("gzip", RunSpec(length=200, warmup=300, seed=2))
        assert first() is not None
        # The third trace evicts the first, which was frozen: only
        # reference counting can free it now.
        cache.get("gzip", RunSpec(length=200, warmup=300, seed=3))
        assert first() is None
    finally:
        if enabled:
            gc.enable()
