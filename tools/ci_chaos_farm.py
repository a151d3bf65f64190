#!/usr/bin/env python
"""Drive a sweep through the farm under continuous fault injection.

The chaos CI job's end-to-end check, extracted from an inline workflow
heredoc so it is lintable and runnable locally::

    PYTHONPATH=src python tools/ci_chaos_farm.py [DIR]

Runs a small (benchmark x scheme x width) sweep twice: once plainly,
once as one ``run_cells`` call over both widths, through a single
lease-based farm (:mod:`repro.farm`), while
:mod:`repro.farm.inject` SIGKILLs one worker mid-cell, stalls another's
heartbeats, spot-evicts a third with SIGTERM, and makes a fourth shed
its lease and finish as a zombie (double-lease).  The run fails if:

* any cell is **lost** (farm result missing or marked failed);
* any cell is **duplicated divergently** (two completions whose
  SimStats differ bit-for-bit);
* any cell **diverges** from the fault-free run (a reclaimed cell
  reruns from cycle 0 and must fold bit-identically);
* the farm root (journal with lease records, cell/lease/result
  envelopes) does not verify under ``fsck``;
* ``python -m repro.farm status <root> --json`` disagrees with fsck: a
  published cell without a result, or a journal note.

Exit status 0 when every invariant holds, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

from _chaos_common import (
    check_report,
    compare_cells,
    fsck_gate,
    report_failures,
)

BENCHMARKS = ("gcc", "mesa")
SCHEMES = ("base", "ER", "PRI-refcount+ckptcount")
CELLS = [(b, s, w) for w in (4, 8) for b in BENCHMARKS for s in SCHEMES]
INJECT = (
    "kill:worker=0:cell=0:cycles=400",          # SIGKILL mid-cell
    "stall:worker=1:cell=0:cycles=200",         # wedged heartbeats
    "evict:worker=2:cell=0:cycles=300",         # spot eviction (SIGTERM)
    "double-lease:worker=3:cell=0:cycles=200",  # zombie duplicate
)


def status_gate(root: str, failures: list) -> None:
    """Run ``python -m repro.farm status ROOT --json`` in process: on a
    root fsck passed, every published cell has a result and the status
    reader finds nothing wrong with the journal."""
    from repro.farm.__main__ import main as farm_main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = farm_main(["status", root, "--json"])
    status = json.loads(out.getvalue())
    print(f"farm status: {status['with_result']}/{status['cells']} cells "
          f"have results, {status['lease_events']} lease events, "
          f"journal note {status['journal_note']!r}")
    if rc != 0:
        failures.append(f"farm status exited {rc}")
    if status["with_result"] != status["cells"]:
        failures.append(f"farm status: {status['with_result']} of "
                        f"{status['cells']} published cells have a result")
    if status["journal_note"] is not None:
        failures.append(f"farm status disagrees with fsck: "
                        f"{status['journal_note']}")


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    root = args[0] if args else "chaos-farm"

    from repro.experiments import RunSpec, run_cells
    from repro.farm import FarmSpec

    spec = RunSpec(length=400, warmup=800, seed=3)
    print(f"fault-free reference: {len(CELLS)} cells")
    plain = run_cells(CELLS, spec)

    farm = FarmSpec(
        root=root, workers=2, lease_ttl=1.5, heartbeat_interval=0.1,
        poll_interval=0.05, grace=5.0, inject=INJECT,
    )
    print(f"chaos run: injecting {len(INJECT)} faults: "
          + ", ".join(p.split(":", 1)[0] for p in INJECT))
    farmed = run_cells(CELLS, spec, farm=farm)
    report = farm.report

    failures: list = []
    compare_cells(plain, farmed, failures)
    if report.cells != len(CELLS):
        failures.append(f"one farm should hold all {len(CELLS)} cells, "
                        f"this one held {report.cells}")
    check_report(report, failures)
    if report.reclaims + report.evictions < 2:
        failures.append(
            "chaos did not bite: expected at least two reclaims/evictions, "
            f"got reclaims={report.reclaims} evictions={report.evictions}"
        )
    fsck_gate(root, failures)
    status_gate(root, failures)

    return report_failures(
        failures,
        "chaos invariants hold: exactly-once completion, no lost or "
        "divergent cells, clean fsck and status")


if __name__ == "__main__":
    sys.exit(main())
