"""CLI entry point for the experiment harness."""

from __future__ import annotations

import argparse
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
from repro.experiments.figures import CELLS, plan
from repro.experiments.runner import run_cells

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
                             "the cells of every table and figure "
                             "(results are identical to --jobs 1)")
    parser.add_argument("--audit", action=argparse.BooleanOptionalAction,
                        default=False,
                        help="run every cell with the machine invariant "
                             "auditor attached (repro.audit)")
    parser.add_argument("--oracle", action=argparse.BooleanOptionalAction,
                        default=False,
                        help="run every cell under the golden-model "
                             "differential oracle (repro.oracle): value "
                             "divergence at commit fails the cell loudly")
    parser.add_argument("--checkpoint-every", type=int, default=None,
                        metavar="N",
                        help="snapshot each cell's machine state every N "
                             "cycles so a crashed cell resumes "
                             "mid-simulation on the next run")
    parser.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                        help="directory for cell checkpoint files "
                             "(default: .repro-checkpoints)")
    parser.add_argument("--max-cycles", type=int, default=None, metavar="N",
                        help="per-cell cycle watchdog: fail a cell that "
                             "does not finish within N cycles")
    parser.add_argument("--journal", default=None, metavar="FILE",
                        help="JSON sweep journal; completed cells are "
                             "restored from it and new ones appended, so "
                             "an interrupted sweep resumes")
    parser.add_argument("--cell-timeout", type=float, default=None,
                        metavar="SEC",
                        help="wall-clock budget per sweep cell (worker is "
                             "killed and the cell recorded as a timeout)")
    parser.add_argument("--retries", type=int, default=0, metavar="N",
                        help="retry crashed/timed-out cells up to N times")
    parser.add_argument("--farm", default=None, metavar="DIR",
                        help="run the sweep through the fault-tolerant "
                             "farm (repro.farm) rooted at DIR: cells "
                             "become durable leases, workers heartbeat "
                             "and checkpoint, crashes resume mid-cell; "
                             "attach extra workers from other shells "
                             "with `python -m repro.farm worker DIR`")
    parser.add_argument("--farm-workers", type=int, default=2, metavar="N",
                        help="local worker processes the farm broker "
                             "spawns (default 2; 0 = attached only)")
    parser.add_argument("--lease-ttl", type=float, default=30.0,
                        metavar="SEC",
                        help="reclaim a farm cell whose lease has not "
                             "heartbeat for SEC seconds (default 30)")
    parser.add_argument("--heartbeat", type=float, default=1.0,
                        metavar="SEC",
                        help="farm worker heartbeat cadence (default 1)")
    parser.add_argument("--grace", type=float, default=5.0, metavar="SEC",
                        help="seconds an evicted/drained farm worker "
                             "gets to checkpoint and release (default 5)")
    parser.add_argument("--farm-inject", action="append", default=[],
                        metavar="FAULT[:worker=N][:cell=N][:cycles=N]",
                        help="deterministically inject a farm fault "
                             "(kill, stall, orphan, evict, double-lease); "
                             "repeatable — used by the chaos suites")
    args = parser.parse_args(argv)
    for flag, value, low in (
            ("--length", args.length, 1), ("--warmup", args.warmup, 0),
            ("--jobs", args.jobs, 1), ("--retries", args.retries, 0),
            ("--max-cycles", args.max_cycles, 1),
            ("--checkpoint-every", args.checkpoint_every, 1),
            ("--farm-workers", args.farm_workers, 0),
            ("--grace", args.grace, 0)):
        if value is not None and value < low:
            parser.error(f"{flag} must be >= {low}, got {value}")
    for flag, value in (("--cell-timeout", args.cell_timeout),
                        ("--lease-ttl", args.lease_ttl),
                        ("--heartbeat", args.heartbeat)):
        if value is not None and not value > 0:
            parser.error(f"{flag} must be > 0, got {value}")

    figures = sorted(set(args.figure))
    tables = sorted(set(args.table))
    if args.all:
        figures = sorted(_FIGURES)
        tables = sorted(_TABLES)
    if not figures and not tables:
        parser.error("nothing to do: pass --all, --figure N, or --table N")

    spec = RunSpec(length=args.length, warmup=args.warmup, seed=args.seed,
                   max_cycles=args.max_cycles, audit=args.audit,
                   oracle=args.oracle,
                   checkpoint_every=args.checkpoint_every,
                   checkpoint_dir=args.checkpoint_dir)
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
    if args.cell_timeout is not None:
        matrix_opts["cell_timeout"] = args.cell_timeout
    if args.retries:
        matrix_opts["retries"] = args.retries
    if args.farm:
        from repro.farm import FarmSpec

        farm_kwargs = {}
        if args.checkpoint_every is not None:
            farm_kwargs["checkpoint_every"] = args.checkpoint_every
        matrix_opts["farm"] = FarmSpec(
            root=args.farm, workers=args.farm_workers,
            lease_ttl=args.lease_ttl, heartbeat_interval=args.heartbeat,
            grace=args.grace, inject=tuple(args.farm_inject),
            **farm_kwargs,
        )

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

    drivers = [("table", n, _TABLES[n]) for n in tables]
    drivers += [("figure", n, _FIGURES[n]) for n in figures]
    cells = [cell for kind, n, _ in drivers if f"{kind}{n}" in CELLS
             for cell in plan(f"{kind}{n}", widths)]
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
        failed = False
        for kind, number, driver in drivers:
            start = time.time()
            try:
                if (kind, number) == ("table", 1):
                    result = driver()
                elif (kind, number) == ("figure", 2):
                    result = driver(length=max(args.length, 10000),
                                    seed=args.seed)
                else:
                    result = driver(spec, widths=widths, results=results)
            except MatrixError as err:
                print(f"{kind} {number} failed: {len(err.errors)} sweep "
                      "cell(s) did not complete:", file=sys.stderr)
                for record in err.errors:
                    print(f"  {record}", file=sys.stderr)
                failed = True
                continue
            text = result.render()
            print(text)
            if args.output:
                os.makedirs(args.output, exist_ok=True)
                path = os.path.join(args.output, f"{kind}{number}.txt")
                with open(path, "w") as handle:
                    handle.write(text + "\n")
            print(f"[{kind} {number}: {time.time() - start:.1f}s]\n")
        if failed:
            if journal_path:
                print(f"(completed cells are journaled in {journal_path}; "
                      "re-run to resume)", file=sys.stderr)
            return 1
    except KeyboardInterrupt:
        # In-flight cells were drained (the farm broker handles that on
        # the way out) and every finished cell is already
        # journaled; tell the user how to pick the sweep back up.
        print("\ninterrupted: sweep drained cleanly.", file=sys.stderr)
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
