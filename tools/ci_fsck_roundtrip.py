#!/usr/bin/env python
"""Write one of every artifact kind, then fsck the tree.

The artifact-integrity CI job's round-trip check, extracted from an
inline workflow heredoc so it is lintable and runnable locally::

    PYTHONPATH=src python tools/ci_fsck_roundtrip.py [DIR]

Builds a fresh tree containing a farm result (an envelope) and a sweep
journal (checksummed lines), one of each store-framed artifact family,
then runs the fsck engine over it.  Exit status 0 when the tree verifies clean, 1 otherwise.
"""

from __future__ import annotations

import os
import sys


def build_tree(root: str) -> None:
    """Write one artifact of each kind under ``root``."""
    from repro.core.stats import SimStats
    from repro.experiments.journal import SweepJournal
    from repro.farm.lease import CellResult, FarmPaths, write_result

    paths = FarmPaths(root).ensure()
    write_result(paths, CellResult(
        cid="ci", key="cell-0", worker="w0", attempt=1, status="ok",
        stats=SimStats().to_dict()))
    journal = SweepJournal(os.path.join(root, "sweep.json"))
    journal.record_ok("cell-0", SimStats())


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    root = args[0] if args else "artifact-tree"
    build_tree(root)

    from repro.store.fsck import fsck_tree

    report = fsck_tree(root)
    for finding in report.findings:
        if finding.status != "ok":
            print(finding)
    print(report.summary())
    return 1 if report.unrepaired else 0


if __name__ == "__main__":
    sys.exit(main())
