"""CLI entry point for the experiment harness."""

from __future__ import annotations

import argparse
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
                        help="local sweep-farm worker processes for sweep "
                             "figures (results are identical to --jobs 1)")
    parser.add_argument("--backend", choices=("scalar", "vector"),
                        default="scalar",
                        help="simulation backend: 'vector' batches each "
                             "sweep column (cells sharing a trace, sizes "
                             "sharing a machine) into one lockstep job "
                             "with bit-identical results (needs numpy)")
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
    parser.add_argument("--farm-endpoint", default=None, metavar="URL",
                        help="HTTP lease-service URL (python -m repro.farm "
                             "serve): the broker and its workers speak the "
                             "lease protocol to this service instead of "
                             "the shared directory — DIR then holds only "
                             "the broker-local sweep journal")
    parser.add_argument("--farm-inject", action="append", default=[],
                        metavar="FAULT[:worker=N][:cell=N][:cycles=N]",
                        help="deterministically inject a farm fault "
                             "(process: kill, stall, orphan, evict, "
                             "double-lease; wire: net-drop, net-delay, "
                             "net-disconnect, net-duplicate, net-stale); "
                             "repeatable — used by the chaos suites")
    args = parser.parse_args(argv)

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
    if args.backend != "scalar":
        try:
            import repro.vector  # noqa: F401 — fail early, with the gate's message
        except ImportError as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
        if not args.farm and (args.jobs > 1 or args.cell_timeout is not None
                              or args.retries):
            parser.error("--backend vector runs whole columns in one "
                         "process; --jobs/--cell-timeout/--retries apply "
                         "to the scalar backend (use --farm to "
                         "distribute columns)")
        matrix_opts["backend"] = args.backend
    if args.journal or args.farm:
        from repro.experiments import SweepJournal

        if args.farm and not args.journal:
            # The farm keeps its journal inside its root; open it here
            # so a damaged one is the same clean error --journal gets,
            # not a traceback from deep inside the broker.
            import os

            os.makedirs(args.farm, exist_ok=True)
        journal_file = args.journal or f"{args.farm}/journal.json"
        try:
            matrix_opts["journal"] = SweepJournal(journal_file)
        except ValueError as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
    if args.cell_timeout is not None:
        matrix_opts["cell_timeout"] = args.cell_timeout
    if args.retries:
        matrix_opts["retries"] = args.retries
    if args.farm_endpoint and not args.farm:
        parser.error("--farm-endpoint needs --farm DIR for the "
                     "broker-local sweep journal")
    if args.farm:
        from repro.farm import FarmSpec

        farm_kwargs = {}
        if args.checkpoint_every is not None:
            farm_kwargs["checkpoint_every"] = args.checkpoint_every
        matrix_opts["farm"] = FarmSpec(
            root=args.farm, workers=args.farm_workers,
            endpoint=args.farm_endpoint,
            lease_ttl=args.lease_ttl, heartbeat_interval=args.heartbeat,
            grace=args.grace, inject=tuple(args.farm_inject),
            **farm_kwargs,
        )

        def farm_progress(report, active) -> None:
            print(f"\r{report.progress_line(active)}   ",
                  end="", file=sys.stderr, flush=True)

        matrix_opts["farm_progress"] = farm_progress

    def emit(name: str, result) -> None:
        text = result.render()
        print(text)
        if args.output:
            import os

            os.makedirs(args.output, exist_ok=True)
            path = os.path.join(args.output, f"{name}.txt")
            with open(path, "w") as handle:
                handle.write(text + "\n")

    # A drained sweep must be resumable with the exact same invocation:
    # completed cells are journaled, so re-running skips them.
    resume_command = "python -m repro.experiments " + " ".join(
        shlex.quote(a) for a in (argv if argv is not None else sys.argv[1:])
    )
    journal_path = args.journal or (
        f"{args.farm}/journal.json" if args.farm else None
    )

    def _sigterm(signum, frame):
        # Route SIGTERM (spot eviction, CI cancellation) through the
        # same drain path as Ctrl-C.
        raise KeyboardInterrupt

    previous_sigterm = signal.signal(signal.SIGTERM, _sigterm)
    try:
        for number in tables:
            start = time.time()
            if number == 1:
                result = table1()
            else:
                result = table2(spec, widths=widths)
            emit(f"table{number}", result)
            print(f"[table {number}: {time.time() - start:.1f}s]\n")
        for number in figures:
            start = time.time()
            try:
                if number == 2:
                    result = figure2(length=max(args.length, 10000),
                                     seed=args.seed)
                elif number == 9:
                    result = _FIGURES[number](spec, widths=widths,
                                              backend=args.backend)
                else:
                    result = _FIGURES[number](spec, widths=widths,
                                              jobs=args.jobs,
                                              matrix_opts=matrix_opts)
            except MatrixError as err:
                print(f"figure {number} failed: {len(err.errors)} sweep "
                      "cell(s) did not complete:", file=sys.stderr)
                for record in err.errors:
                    print(f"  {record}", file=sys.stderr)
                if journal_path:
                    print(f"(completed cells are journaled in "
                          f"{journal_path}; re-run to resume)",
                          file=sys.stderr)
                return 1
            if args.farm:
                print(file=sys.stderr)  # end the live progress line
            emit(f"figure{number}", result)
            print(f"[figure {number}: {time.time() - start:.1f}s]\n")
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
