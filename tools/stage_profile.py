#!/usr/bin/env python
"""Per-stage split of the cycle loop, measured with cProfile.

    PYTHONPATH=src python tools/stage_profile.py [--cells all|busy|ammp]
        [--length N] [--warmup N] [--seed N] [--widths 4,8]

Runs a named set of cells serially, in process, under ``cProfile`` and
reports, for each pipeline stage method of
:class:`repro.core.machine.Machine` (``_process_events``, ``_commit``,
``_select``, ``_rename``, ``_fetch``), its cumulative seconds, its
calls and its calls per committed instruction.  Cell sets:

``all``
    the distinct cells of ``python -m repro.experiments --all``;
``busy``
    gzip, gcc and twolf under base, PRI-refcount+ckptcount and ER: busy
    cells whose cycles rarely idle;
``ammp``
    ammp's cells of the ``--all`` plan: mostly idle cycles waiting on
    memory.

Traces are built before the profiler starts, so the profile holds the
warmup and the cycle loop only.  The profiler slows every call down,
so the seconds are comparable with each other and across revisions
measured the same way, not with an unprofiled wall clock.  The normal
cycle loop pays nothing for this tool: it only reads the profiler's
per-function records of methods the loop calls anyway.
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import sys
import time
from typing import List

from repro.experiments.figures import CELLS, plan
from repro.experiments.runner import Cell, RunSpec, TraceCache, run_one

#: The stage methods, in the order the cycle loop runs them.
STAGES = ("_process_events", "_commit", "_select", "_rename", "_fetch")

_BUSY_BENCHMARKS = ("gzip", "gcc", "twolf")
_BUSY_SCHEMES = ("base", "PRI-refcount+ckptcount", "ER")


def cell_set(name: str, widths) -> List[Cell]:
    """The cells of a named set, distinct, in plan order."""
    everything = list(dict.fromkeys(
        cell for driver in CELLS for cell in plan(driver, widths)))
    if name == "all":
        return everything
    if name == "ammp":
        return [cell for cell in everything if cell[0] == "ammp"]
    if name == "busy":
        return [(b, s, w) for w in widths for b in _BUSY_BENCHMARKS
                for s in _BUSY_SCHEMES]
    raise ValueError(f"unknown cell set {name!r}")


def _machine_file() -> str:
    import repro.core.machine as machine

    return os.path.normcase(os.path.abspath(machine.__file__))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--cells", default="busy",
                        choices=("all", "busy", "ammp"))
    parser.add_argument("--length", type=int, default=200)
    parser.add_argument("--warmup", type=int, default=20000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--widths", default="4,8",
                        help="comma-separated machine widths (4, 8)")
    args = parser.parse_args(argv)
    widths = tuple(int(w) for w in args.widths.split(","))
    cells = cell_set(args.cells, widths)
    spec = RunSpec(length=args.length, warmup=args.warmup, seed=args.seed)
    traces = TraceCache()
    for benchmark in dict.fromkeys(b for b, _, _ in cells):
        traces.get(benchmark, spec)

    profiler = cProfile.Profile()
    committed = cycles = 0
    started = time.perf_counter()
    profiler.enable()
    for benchmark, scheme, width in cells:
        stats = run_one(benchmark, scheme, width, spec, traces)
        committed += stats.committed
        cycles += stats.cycles
    profiler.disable()
    elapsed = time.perf_counter() - started

    machine_file = _machine_file()
    found = {}
    for (filename, _, function), row in pstats.Stats(profiler).stats.items():
        if (function in STAGES
                and os.path.normcase(os.path.abspath(filename)) == machine_file):
            calls, seconds = row[1], row[3]
            found[function] = (calls, seconds)
    print(f"cells {args.cells}: {len(cells)} cells, length {args.length}, "
          f"warmup {args.warmup}, seed {args.seed}, widths {args.widths}")
    print(f"{cycles} cycles, {committed} commits, "
          f"{elapsed:.2f} s profiled")
    print(f"{'stage':<16}{'cum s':>9}{'calls':>11}{'calls/commit':>14}")
    for stage in STAGES:
        calls, seconds = found.get(stage, (0, 0.0))
        per_commit = calls / committed if committed else 0.0
        print(f"{stage:<16}{seconds:>9.2f}{calls:>11}{per_commit:>14.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
