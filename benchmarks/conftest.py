"""Shared configuration for the benchmark harness.

Each benchmark regenerates one of the paper's tables or figures (the same
rows/series the paper reports) and asserts its *shape* — who wins, by
roughly what factor — against the paper.  Absolute numbers come from the
synthetic-trace substrate and differ from the paper's SPEC2000 runs; see
EXPERIMENTS.md.

Scaling knobs (environment variables):

* ``REPRO_BENCH_LENGTH`` — timed instructions per run (default 2500).
* ``REPRO_BENCH_WARMUP`` — warmup instructions (default 20000; shorter
  warmups leave predictors and caches cold and depress every IPC).
* ``REPRO_BENCH_WIDTHS`` — comma-separated machine widths (default "4";
  set to "4,8" for the paper's full pair — roughly doubles runtime).

Every benchmark uses ``benchmark.pedantic(..., rounds=1, iterations=1)``:
a cycle-level simulation is deterministic, so repeated timing rounds
would only waste hours.
"""

import os

import pytest

from repro.experiments.runner import RunSpec, TraceCache


def _env_int(name, default):
    return int(os.environ.get(name, default))


BENCH_LENGTH = _env_int("REPRO_BENCH_LENGTH", 2500)
BENCH_WARMUP = _env_int("REPRO_BENCH_WARMUP", 20000)
BENCH_WIDTHS = tuple(
    int(w) for w in os.environ.get("REPRO_BENCH_WIDTHS", "4").split(",")
)


@pytest.fixture(scope="session")
def spec():
    return RunSpec(length=BENCH_LENGTH, warmup=BENCH_WARMUP, seed=1)


@pytest.fixture(scope="session")
def traces():
    """One trace cache for the whole benchmark session: every scheme of a
    figure runs the same trace, as in the paper."""
    return TraceCache()


@pytest.fixture(scope="session")
def widths():
    return BENCH_WIDTHS


def run_once(benchmark, fn, *args, **kwargs):
    """Run a deterministic experiment exactly once under the timer, then
    print the table or figure it renders."""
    result = benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1,
                                iterations=1)
    print("\n" + result.render())
    return result
