"""Top-level simulator CLI.

Run one benchmark under one scheme and print the statistics::

    python -m repro gzip                       # base 4-wide machine
    python -m repro gzip --scheme PRI+ER       # any Figure 10 scheme
    python -m repro mcf --width 8 --length 10000 --regs 96
    python -m repro --list                     # available benchmarks

For the full table/figure harness use ``python -m repro.experiments``.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.core.machine import SimulationError
from repro.experiments.runner import (
    SCHEMES,
    RunSpec,
    TraceCache,
    resolve_config,
    run_one,
)
from repro.workloads import ALL_BENCHMARKS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Simulate one benchmark profile on the paper's machine.",
    )
    parser.add_argument("benchmark", nargs="?", help="benchmark profile name")
    parser.add_argument("--scheme", default="base", choices=sorted(SCHEMES),
                        help="register reclamation scheme (default: base)")
    parser.add_argument("--width", type=int, choices=(4, 8), default=4)
    parser.add_argument("--length", type=int, default=6000,
                        help="timed instructions (default 6000)")
    parser.add_argument("--warmup", type=int, default=20000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--regs", type=int, default=None,
                        help="override the physical register count per "
                             "class")
    parser.add_argument("--audit", action=argparse.BooleanOptionalAction,
                        default=False,
                        help="attach the machine invariant auditor "
                             "(repro.audit): bookkeeping corruption aborts "
                             "the run with a structured diagnostic")
    parser.add_argument("--oracle", action=argparse.BooleanOptionalAction,
                        default=False,
                        help="attach the golden-model differential oracle "
                             "(repro.oracle): any committed value, branch "
                             "outcome, or memory effect that diverges from "
                             "in-order execution aborts the run with a "
                             "structured OracleDivergence")
    parser.add_argument("--max-cycles", type=int, default=None, metavar="N",
                        help="abort if the run needs more than N cycles")
    parser.add_argument("--list", action="store_true",
                        help="list benchmark profiles and exit")
    args = parser.parse_args(argv)

    if args.list:
        for profile in ALL_BENCHMARKS:
            print(f"{profile.name:10s} [{profile.suite}]  {profile.notes}")
        return 0
    if not args.benchmark:
        parser.error("benchmark name required (or --list)")

    scheme = args.scheme
    if args.regs is not None:
        scheme += f"@PR={args.regs}"
    spec = RunSpec(length=args.length, warmup=args.warmup, seed=args.seed,
                   max_cycles=args.max_cycles, audit=args.audit,
                   oracle=args.oracle)
    try:
        config = resolve_config(scheme, args.width, spec)
    except ValueError as err:
        parser.error(str(err))

    print(f"generating {args.benchmark!r}: {args.length} timed + "
          f"{args.warmup} warmup instructions (seed {args.seed})")
    traces = TraceCache()
    traces.get(args.benchmark, spec)  # generate outside the timed run

    start = time.time()
    try:
        stats = run_one(args.benchmark, scheme, args.width, spec, traces)
    except SimulationError as err:
        print(f"simulation failed: {err}", file=sys.stderr)
        diagnostic = getattr(err, "diagnostic", None)
        if diagnostic:
            for key, value in diagnostic.items():
                print(f"  {key}: {value}", file=sys.stderr)
        return 1
    elapsed = time.time() - start

    print(f"scheme {args.scheme!r} on the {config.name} machine "
          f"({config.int_phys_regs} INT + {config.fp_phys_regs} FP regs)")
    print(stats.summary())
    life = stats.lifetime("int")
    print(f"branches: {stats.branches} committed, "
          f"{stats.mispredicts} mispredicts, {stats.squashed} ops squashed")
    print(f"register lifetime (INT): alloc->write {life.avg_alloc_to_write:.1f}, "
          f"write->last-read {life.avg_write_to_last_read:.1f}, "
          f"last-read->release {life.avg_last_read_to_release:.1f} cycles")
    if stats.inline_attempts:
        print(f"PRI: {stats.inline_attempts} narrow results at retire, "
              f"{stats.inlined} inlined ({stats.inline_waw_dropped} WAW-dropped), "
              f"{stats.pri_early_frees} early frees "
              f"({stats.pri_frees_deferred} deferred by references)")
    if stats.er_early_frees:
        print(f"ER: {stats.er_early_frees} early frees, "
              f"{stats.duplicate_deallocs} duplicate deallocations absorbed")
    if stats.audits:
        print(f"audit: {stats.audits} invariant audits, all clean")
    if stats.oracle_commits:
        print(f"oracle: {stats.oracle_commits} commits compared "
              f"({stats.oracle_dest_checks} destinations observable, "
              f"{stats.oracle_unobserved} already reclaimed), "
              f"{stats.oracle_arch_checks} architectural sweeps, all clean")
    print(f"[{elapsed:.1f}s, {stats.cycles / max(elapsed, 1e-9):,.0f} cycles/s]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
