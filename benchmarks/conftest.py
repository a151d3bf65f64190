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

The table, figure and ablation tests share one results table for the
session (the ``results`` fixture).  The ``render`` fixture simulates, in
one ``run_cells`` call, only the cells of the driver's plan entry
(``figures.plan``) that the table does not hold yet, then renders the
driver from the table.  A lone test therefore simulates just its own
cells, and a whole session simulates each distinct cell once.

Every benchmark uses ``benchmark.pedantic(..., rounds=1, iterations=1)``:
a cycle-level simulation is deterministic, so repeated timing rounds
would only waste hours.
"""

import os

import pytest

from repro.experiments.figures import ABLATIONS, plan
from repro.experiments.runner import RunSpec, TraceCache, run_cells


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


@pytest.fixture(scope="session")
def results():
    """The session's one results table: (benchmark, scheme, width) ->
    stats, filled by ``render``."""
    return {}


@pytest.fixture
def render(benchmark, spec, traces, widths, results):
    """``render(name, driver)``: once, under the timer, simulate the
    cells of ``plan(name, widths)`` missing from ``results``, then render
    ``driver`` (``ablation`` for an ablation) from it; print and return
    the result."""

    def simulate_and_render(name, driver):
        missing = [cell for cell in plan(name, widths) if cell not in results]
        results.update(run_cells(missing, spec, traces))
        if name in ABLATIONS:
            return driver(name, results)
        return driver(results, widths=widths)

    return lambda name, driver: run_once(benchmark, simulate_and_render,
                                         name, driver)


def run_once(benchmark, fn, *args, **kwargs):
    """Run a deterministic experiment exactly once under the timer, then
    print the table or figure it renders."""
    result = benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1,
                                iterations=1)
    print("\n" + result.render())
    return result
