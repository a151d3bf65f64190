"""CLI entry point for the experiment harness."""

from __future__ import annotations

import argparse
import functools
import os
import shlex
import signal
import sys
import time

from repro.experiments import (
    MatrixError,
    RunSpec,
    figure1,
    figure2,
    figure8,
    figure9,
    figure10,
    figure11,
    figure12,
    table1,
    table2,
)
from repro.experiments.figures import ABLATIONS, CELLS, ablation, plan
from repro.experiments.runner import SweepInterrupted, run_cells

_FIGURES = {1: figure1, 2: figure2, 8: figure8, 9: figure9,
            10: figure10, 11: figure11, 12: figure12}
_TABLES = {1: table1, 2: table2}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument("--figure", type=int, choices=sorted(_FIGURES),
                        action="append", default=[])
    parser.add_argument("--table", type=int, choices=sorted(_TABLES),
                        action="append", default=[])
    parser.add_argument("--all", action="store_true",
                        help="run every table and figure")
    parser.add_argument("--length", type=int, default=6000,
                        help="timed instructions per run (default 6000)")
    parser.add_argument("--warmup", type=int, default=20000,
                        help="untimed warmup instructions (default 20000)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--width", type=int, choices=(4, 8), default=None,
                        help="restrict to one machine width (default: both)")
    parser.add_argument("--output", default=None, metavar="DIR",
                        help="also write each result to DIR/<name>.txt")
    parser.add_argument("--jobs", type=int, default=1,
                        help="local sweep-farm worker processes that run "
                             "the cells of every table and figure, with "
                             "or without --farm (results are identical "
                             "to --jobs 1)")
    parser.add_argument("--audit", action=argparse.BooleanOptionalAction,
                        default=False,
                        help="run every cell with the machine invariant "
                             "auditor attached (repro.audit)")
    parser.add_argument("--oracle", action=argparse.BooleanOptionalAction,
                        default=False,
                        help="run every cell under the golden-model "
                             "differential oracle (repro.oracle): value "
                             "divergence at commit fails the cell loudly")
    parser.add_argument("--max-cycles", type=int, default=None, metavar="N",
                        help="per-cell cycle watchdog: fail a cell that "
                             "does not finish within N cycles")
    parser.add_argument("--journal", default=None, metavar="FILE",
                        help="JSON sweep journal; completed cells are "
                             "restored from it and new ones appended, so "
                             "an interrupted sweep resumes")
    parser.add_argument("--farm", default=None, metavar="DIR",
                        help="run the sweep through the fault-tolerant "
                             "farm (repro.farm) rooted at DIR: cells "
                             "become durable leases, workers heartbeat, "
                             "a crashed cell reruns on another worker; "
                             "attach extra workers from other shells "
                             "with `python -m repro.farm worker DIR`")
    parser.add_argument("--farm-inject", action="append", default=[],
                        metavar="FAULT[:worker=N][:cell=N][:cycles=N]",
                        help="deterministically inject a farm fault "
                             "(kill, stall, orphan, evict, double-lease); "
                             "repeatable — used by the chaos suites")
    args = parser.parse_args(argv)
    for flag, value, low in (
            ("--length", args.length, 1), ("--warmup", args.warmup, 0),
            ("--jobs", args.jobs, 1), ("--max-cycles", args.max_cycles, 1)):
        if value is not None and value < low:
            parser.error(f"{flag} must be >= {low}, got {value}")

    figures = sorted(set(args.figure))
    tables = sorted(set(args.table))
    if args.all:
        figures = sorted(_FIGURES)
        tables = sorted(_TABLES)
    if not figures and not tables:
        parser.error("nothing to do: pass --all, --figure N, or --table N")

    spec = RunSpec(length=args.length, warmup=args.warmup, seed=args.seed,
                   max_cycles=args.max_cycles, audit=args.audit,
                   oracle=args.oracle)
    widths = (args.width,) if args.width else (4, 8)
    matrix_opts = {}
    journal_path = args.journal or (
        f"{args.farm}/journal.json" if args.farm else None
    )
    if journal_path:
        from repro.experiments import SweepJournal

        if args.farm and not args.journal:
            # The farm keeps its journal inside its root; open it here
            # so a damaged one is the same clean error --journal gets,
            # not a traceback from deep inside the broker.
            os.makedirs(args.farm, exist_ok=True)
        try:
            matrix_opts["journal"] = SweepJournal(journal_path)
        except ValueError as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
    if args.farm:
        from repro.farm import FarmSpec

        matrix_opts["farm"] = FarmSpec(root=args.farm, workers=args.jobs,
                                       inject=tuple(args.farm_inject))

        def farm_progress(report, active) -> None:
            print(f"\r{report.progress_line(active)}   ",
                  end="", file=sys.stderr, flush=True)

        matrix_opts["farm_progress"] = farm_progress

    # A drained sweep must be resumable with the exact same invocation:
    # completed cells are journaled, so re-running skips them.
    resume_command = "python -m repro.experiments " + " ".join(
        shlex.quote(a) for a in (argv if argv is not None else sys.argv[1:])
    )

    def _sigterm(signum, frame):
        # Route SIGTERM (spot eviction, CI cancellation) through the
        # same drain path as Ctrl-C.
        raise KeyboardInterrupt

    # (plan name, label, render from the results) of each output; every
    # plan driver renders as driver(results).
    drivers = [(f"table{n}", f"table {n}", _TABLES[n]) for n in tables]
    drivers += [(f"figure{n}", f"figure {n}", _FIGURES[n]) for n in figures]
    drivers = [(name, label, functools.partial(driver, widths=widths)
                if name in CELLS else driver)
               for name, label, driver in drivers]
    if args.all and 4 in widths:
        drivers += [(name, f"ablation {name}", functools.partial(ablation, name))
                    for name in ABLATIONS]
    planned = {name: plan(name, widths)
               if name in CELLS or name in ABLATIONS else []
               for name, _, _ in drivers}
    cells = [cell for driver_cells in planned.values() for cell in driver_cells]

    def render(results, which) -> bool:
        """Print (and save) each driver in ``which``; True if any failed."""
        failed = False
        for name, label, driver in which:
            start = time.time()
            try:
                if name == "table1":
                    result = driver()
                elif name == "figure2":
                    result = driver(length=max(args.length, 10000),
                                    seed=args.seed)
                else:
                    result = driver(results)
            except MatrixError as err:
                print(f"{label} failed: {len(err.errors)} sweep "
                      "cell(s) did not complete:", file=sys.stderr)
                for record in err.errors:
                    print(f"  {record}", file=sys.stderr)
                failed = True
                continue
            text = result.render()
            print(text + "\n")
            if args.output:
                os.makedirs(args.output, exist_ok=True)
                path = os.path.join(args.output, f"{name}.txt")
                with open(path, "w") as handle:
                    handle.write(text + "\n")
            print(f"[{label}: {time.time() - start:.1f}s]", file=sys.stderr)
        return failed

    previous_sigterm = signal.signal(signal.SIGTERM, _sigterm)
    try:
        # Plan, execute, render: every distinct cell of every requested
        # table and figure runs once, then each renders from the table.
        start = time.time()
        results = run_cells(cells, spec, jobs=args.jobs, **matrix_opts)
        if args.farm:
            print(file=sys.stderr)  # end the live progress line
        if results:
            print(f"[simulate: {len(results)} cells, "
                  f"{time.time() - start:.1f}s]", file=sys.stderr)
        if render(results, drivers):
            if journal_path:
                print(f"(completed cells are journaled in {journal_path}; "
                      "re-run to resume)", file=sys.stderr)
            return 1
    except KeyboardInterrupt as interrupted:
        # In-flight cells were drained (the farm broker handles that on
        # the way out) and every finished cell is already journaled.
        # Render the tables and figures whose cells all finished, then
        # say how to pick the sweep back up.
        print("\ninterrupted: sweep drained cleanly.", file=sys.stderr)
        if isinstance(interrupted, SweepInterrupted):
            done = interrupted.results
            try:
                render(done, [d for d in drivers
                              if all(c in done for c in planned[d[0]])])
            except KeyboardInterrupt:
                pass  # interrupted again: stop rendering
        if journal_path:
            print(f"  completed cells are journaled in {journal_path}",
                  file=sys.stderr)
            print(f"  resume with: {resume_command}", file=sys.stderr)
        else:
            print("  (no --journal/--farm given, so completed cells were "
                  "not persisted; pass one to make sweeps resumable)",
                  file=sys.stderr)
            print(f"  re-run with: {resume_command}", file=sys.stderr)
        return 130
    finally:
        signal.signal(signal.SIGTERM, previous_sigterm)
    return 0


if __name__ == "__main__":
    sys.exit(main())
