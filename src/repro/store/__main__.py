"""Artifact-store CLI: fsck and repair for persistent simulator state.

::

    python -m repro.store fsck <dir|file>             # verify, report
    python -m repro.store fsck --repair <dir|file>    # also fix
    python -m repro.store repair <dir|file>           # == fsck --repair
    python -m repro.store repair --delete <dir|file>  # delete, don't quarantine

Exit status: 0 when the tree is clean (or every problem was repaired),
1 when problems remain on disk, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.store.fsck import fsck_tree


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.store",
        description="Verify and repair the simulator's persistent "
                    "artifacts (journals, reproducers, farm records).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("fsck", "scan a tree and verify every artifact's integrity"),
        ("repair", "fsck, then salvage journals, remove writer leftovers, "
                   "and quarantine unrecoverable artifacts"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("path", help="directory tree (or single file) to scan")
        cmd.add_argument(
            "--delete", action="store_true",
            help="delete unrecoverable artifacts instead of quarantining "
                 "them to <name>.quarantine/",
        )
        cmd.add_argument(
            "-q", "--quiet", action="store_true",
            help="print only the summary line",
        )
        if name == "fsck":
            cmd.add_argument(
                "--repair", action="store_true",
                help="fix what can be fixed (same as the repair command)",
            )
    args = parser.parse_args(argv)

    repair = args.command == "repair" or getattr(args, "repair", False)
    if args.delete and not repair:
        parser.error("--delete requires repair mode (use repair or --repair)")

    def progress(finding) -> None:
        if not args.quiet and finding.status != "ok":
            print(finding)

    report = fsck_tree(
        args.path, repair=repair, delete=args.delete, progress=progress
    )
    print(report.summary())
    return 1 if report.unrepaired else 0


if __name__ == "__main__":
    sys.exit(main())
