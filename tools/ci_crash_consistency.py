#!/usr/bin/env python
"""Crash-consistency CI gate: every power-loss state must recover.

Runnable locally::

    PYTHONPATH=src python tools/ci_crash_consistency.py [DIR]

For every registered workload in :mod:`repro.crash.workloads` — the
envelope store, the sweep journal's append stream, the farm lease
protocol, the serve job journal and
result cache, and the incompatible-journal archive path — the
harness records the workload's op log, enumerates **all** reachable
crash states (no ``--limit`` smoke mode here), runs the owning layer's
recovery against each one, and applies the oracle: recovery terminates,
no acknowledged write is lost, no phantom state surfaces, fencing never
regresses, and the post-recovery tree passes ``fsck`` clean.

Exit status 0 when every state across every workload recovers, 1
otherwise.
"""

from __future__ import annotations

import os
import sys

from _chaos_common import report_failures


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    base = args[0] if args else "crash-consistency"

    from repro.crash import WORKLOADS, run_harness

    failures: list = []
    total_states = 0
    for name in sorted(WORKLOADS):
        report = run_harness(WORKLOADS[name], os.path.join(base, name))
        total_states += report.states
        verdict = "clean" if report.clean else (
            f"{len(report.violations)} VIOLATIONS")
        print(f"{name:<20} {report.ops:>3} ops  "
              f"{report.crash_points:>3} crash points  "
              f"{report.states:>4} states  {verdict}")
        for violation in report.violations[:10]:
            print(f"  {violation}")
        if not report.clean:
            failures.append(
                f"{name}: {len(report.violations)} crash state(s) did not "
                "recover clean")
        if report.states <= report.crash_points // 2:
            failures.append(
                f"{name}: only {report.states} states from "
                f"{report.crash_points} crash points — enumeration is not "
                "exploring reorderings")

    return report_failures(
        failures,
        f"crash-consistency invariants hold: {total_states} power-loss "
        f"states across {len(WORKLOADS)} durability layers, every one "
        "recovered with zero acked-data loss")


if __name__ == "__main__":
    sys.exit(main())
